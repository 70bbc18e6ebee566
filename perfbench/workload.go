package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/workload"
)

const valueSize = 64

// opKind is one client operation type.
type opKind uint8

const (
	opGetSnap opKind = iota // DB.GetSnapshotContext
	opGet                   // DB.GetContext (S key lock)
	opScan                  // DB.ScanKeysSnapshotContext
	opPut                   // DB.PutContext
	numKinds
)

var kindNames = [numKinds]string{"get_snapshot", "get", "scan", "put"}

// op is one generated client request. The engine receives only the
// key string, the scan length and the value derived from it.
type op struct {
	kind opKind
	ord  int    // key ordinal (scan start for opScan)
	n    int    // scan length
	val  []byte // put payload
}

// spec describes one workload. Each is preloaded with DB.Import and a
// synchronous checkpoint before timing starts.
type spec struct {
	name string
	// preload lists the key ordinals loaded before the timed phase.
	preload func(universe int) []int
	// universe is the number of key ordinals operations draw from.
	universe int
	frames   int
	// durable selects a file-backed data device and WAL with an fsync
	// on every commit; otherwise both live in memory.
	durable bool
	// ckptEvery makes the client call DB.Checkpoint after this many
	// puts (0 = never), so background checkpoints run several cycles.
	ckptEvery int
	// newGen returns the operation generator for one run.
	newGen func(rng *rand.Rand, universe int) func() op
}

func allOrdinals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// specs are the benchmark's workloads; BENCHMARK.json says why each
// was chosen.
var specs = map[string]spec{
	// Point-lookup floor: the store fits the pool, so no operation does
	// I/O and the WAL stays idle. Zipfian key choice (theta 1.1) over a
	// seeded permutation, so hot keys are spread over the leaves.
	"read-hot": {
		name:     "read-hot",
		preload:  allOrdinals,
		universe: 50_000,
		frames:   8192,
		newGen: func(rng *rand.Rand, universe int) func() op {
			perm := rng.Perm(universe)
			z := workload.NewZipf(rng, 1.1, universe)
			return func() op {
				k := opGetSnap
				if rng.Intn(10) == 0 {
					k = opGet
				}
				return op{kind: k, ord: perm[z.Next()]}
			}
		},
	},
	// Data about 25x the 256-frame pool: buffer misses, evictions and
	// dirty write-back on most operations; range scans beside writes.
	// Keys are only overwritten, so every scan's result is known.
	"scan-evict": {
		name:     "scan-evict",
		preload:  allOrdinals,
		universe: 200_000,
		frames:   256,
		newGen: func(rng *rand.Rand, universe int) func() op {
			return func() op {
				switch r := rng.Intn(10); {
				case r < 7:
					return op{kind: opScan, ord: rng.Intn(universe), n: 1 + rng.Intn(100)}
				case r < 9:
					return op{kind: opGetSnap, ord: rng.Intn(universe)}
				default:
					return op{kind: opPut, ord: rng.Intn(universe), val: randValue(rng)}
				}
			}
		},
	},
	// Write-only: even ordinals are preloaded, puts draw from all of
	// them, so about half overwrite and half insert; the client
	// checkpoints every 1000 puts. put-mem keeps both devices in
	// memory, so WAL encoding, commit and checkpoint costs show without
	// fsync wait; put-durable puts them in files with an fsync per
	// commit, whose latency follows the host's disk.
	"put-mem":     putSpec("put-mem", false),
	"put-durable": putSpec("put-durable", true),
}

func putSpec(name string, durable bool) spec {
	return spec{
		name: name,
		preload: func(universe int) []int {
			out := make([]int, 0, universe/2)
			for i := 0; i < universe; i += 2 {
				out = append(out, i)
			}
			return out
		},
		universe:  40_000,
		frames:    256,
		durable:   durable,
		ckptEvery: 1000,
		newGen: func(rng *rand.Rand, universe int) func() op {
			return func() op {
				return op{kind: opPut, ord: rng.Intn(universe), val: randValue(rng)}
			}
		},
	}
}

func randValue(rng *rand.Rand) []byte {
	v := make([]byte, valueSize)
	rng.Read(v)
	return v
}

// model is the reference the engine's answers are checked against: the
// value of every present key ordinal.
type model struct {
	keys    []string // workload.Key(i), precomputed
	vals    [][]byte // nil = absent
	live    int
	written map[int]bool // ordinals put during the run
}

func newModel(universe int) *model {
	m := &model{keys: make([]string, universe), vals: make([][]byte, universe), written: map[int]bool{}}
	for i := range m.keys {
		m.keys[i] = workload.Key(i)
	}
	return m
}

func (m *model) put(ord int, v []byte) {
	if m.vals[ord] == nil {
		m.live++
	}
	m.vals[ord] = v
}

// apply checks an engine reply to o against the model and applies an
// acknowledged put to it.
func (m *model) apply(o op, rep reply) error {
	switch o.kind {
	case opGetSnap, opGet:
		return m.checkGet(o.ord, rep.val, rep.err)
	case opScan:
		return m.checkScan(o.ord, o.n, rep.keys, rep.err)
	default:
		if rep.err != nil {
			return fmt.Errorf("put %s: %w", m.keys[o.ord], rep.err)
		}
		m.put(o.ord, o.val)
		m.written[o.ord] = true
		return nil
	}
}

// checkGet compares a point read of ord with the model.
func (m *model) checkGet(ord int, got []byte, err error) error {
	want := m.vals[ord]
	switch {
	case want == nil && errors.Is(err, sbdms.ErrKeyNotFound):
		return nil
	case err != nil:
		return fmt.Errorf("get %s: %w", m.keys[ord], err)
	case want == nil:
		return fmt.Errorf("get %s: found a value for an absent key", m.keys[ord])
	case !bytes.Equal(got, want):
		return fmt.Errorf("get %s: value differs from the model", m.keys[ord])
	}
	return nil
}

// checkScan compares a scan of up to n keys from ord onward with the
// next n present ordinals of the model.
func (m *model) checkScan(ord, n int, got []string, err error) error {
	if err != nil {
		return fmt.Errorf("scan %s+%d: %w", m.keys[ord], n, err)
	}
	i := 0
	for o := ord; o < len(m.vals) && i < n; o++ {
		if m.vals[o] == nil {
			continue
		}
		if i >= len(got) || got[i] != m.keys[o] {
			return fmt.Errorf("scan %s+%d: key %d differs from the model", m.keys[ord], n, i)
		}
		i++
	}
	if i != len(got) {
		return fmt.Errorf("scan %s+%d: %d keys, model has %d", m.keys[ord], n, len(got), i)
	}
	return nil
}

// verify checks a reopened store against the model: its key count, a
// seeded sample of all ordinals (absent ones must read as not found)
// and, when all is set, every key put during the run. It returns the
// reads made and the mismatches found.
func (m *model) verify(ctx context.Context, db *sbdms.DB, rng *rand.Rand, samples int, all bool) (attempted, failed int, firstErr error) {
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	attempted++
	if got := db.KVLen(); got != uint64(m.live) {
		fail(fmt.Errorf("KVLen %d, model has %d keys", got, m.live))
	}
	check := func(ord int) {
		attempted++
		v, err := db.GetSnapshotContext(ctx, m.keys[ord])
		if err := m.checkGet(ord, v, err); err != nil {
			fail(err)
		}
	}
	if all {
		for ord := range m.written {
			check(ord)
		}
	}
	for i := 0; i < samples; i++ {
		check(rng.Intn(len(m.vals)))
	}
	return attempted, failed, firstErr
}
