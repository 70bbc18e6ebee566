// Command perfbench is the repository benchmark: one closed-loop client
// drives a workload against sbdms.DB at the layered granularity (each
// KV call crosses the kv and record service hops), checks every answer
// against a model, simulates a kill -9, reopens and verifies the store.
//
// With -trace 0 it reports the end-to-end metrics of an untraced run.
// With -trace 1 it installs timing wrappers on the engine's existing
// hooks (Options.Binding, Options.Device, Options.LogDir), alternates
// traced and untraced slices of the timed phase, and reports per-layer
// metrics. The last line of standard output is the result object.
//
//	perfbench -workload read-hot -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro"
	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/wal"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: read-hot, scan-evict, put-mem or put-durable")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			cfg.workload, cfg.seconds, trace)
		return 2
	}
	cfg.trace = trace == 1
	res, err := runWorkload(cfg, sp)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if res.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d checks failed, first: %v\n",
			cfg.workload, res.failed, res.attempted, res.firstErr)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(res.row); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out := map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.failed != 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]metric
	row               map[string]any
}

// store is one database instance and the devices under it; the devices
// outlive a simulated crash so the store can be reopened on them.
type store struct {
	db   *sbdms.DB
	dir  string
	data storage.Device
	logs wal.SegmentDir
}

type runner struct {
	cfg config
	sp  spec
	tr  *tracer // nil when tracing is off
	dir string
	// Span names of client requests, interned when tracing.
	opNames  [numKinds]uint16
	ckptName uint16

	attempted, failed int
	firstErr          error
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func runWorkload(cfg config, sp spec) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{cfg: cfg, sp: sp, dir: dir}
	if cfg.trace {
		r.tr = newTracer()
		for k := range r.opNames {
			r.opNames[k] = r.tr.name("op." + kindNames[k])
		}
		r.ckptName = r.tr.name("txn.checkpoint")
	}
	return r.run()
}

// newStore creates empty devices: files in a fresh directory for a
// durable workload, memory otherwise.
func (r *runner) newStore(i int) (*store, error) {
	if !r.sp.durable {
		return &store{data: storage.NewMemDevice(), logs: wal.NewMemSegmentDir()}, nil
	}
	st := &store{dir: filepath.Join(r.dir, fmt.Sprintf("store%d", i))}
	return st, st.openFiles()
}

func (st *store) openFiles() error {
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	data, err := storage.OpenFileDevice(filepath.Join(st.dir, "data"))
	if err != nil {
		return err
	}
	logs, err := wal.NewFileSegmentDir(filepath.Join(st.dir, "wal"))
	if err != nil {
		data.Close()
		return err
	}
	st.data, st.logs = data, logs
	return nil
}

// open starts the engine on the store's devices. WALGroupWindow stays
// 0: every commit forces the log on its own.
func (r *runner) open(st *store) error {
	opts := sbdms.Options{
		Granularity:  sbdms.Layered,
		BufferFrames: r.sp.frames,
		Device:       st.data,
		LogDir:       st.logs,
	}
	if r.tr != nil {
		opts.Device = r.tr.wrapDevice(st.data, "storage")
		opts.LogDir = r.tr.wrapSegments(st.logs)
		opts.Binding = r.tr
	}
	db, err := sbdms.Open(opts)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	st.db = db
	return nil
}

// close shuts a store down cleanly and releases its files.
func (st *store) close() error {
	err := st.db.Close(context.Background())
	if rerr := st.release(); err == nil {
		err = rerr
	}
	return err
}

// release drops a store's devices and files.
func (st *store) release() error {
	err := st.data.Close()
	if st.dir != "" {
		if rerr := os.RemoveAll(st.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// crash simulates kill -9: services and the checkpoint flusher stop and
// nothing is flushed. The devices keep what was written to them.
func (st *store) crash() {
	_ = st.db.Kernel().Stop(context.Background()) // crash simulation: stop errors are irrelevant
	_ = st.db.Txns().StopCheckpointFlusher()      // a pending flush error dies with the process
	st.db = nil
}

// clone copies a crashed store's data device, WAL segments and manifest
// into fresh devices of the same kind.
func (r *runner) clone(src *store, i int) (*store, error) {
	dst, err := r.newStore(setupRuns + i)
	if err != nil {
		return nil, err
	}
	if err := copyDevice(dst.data, src.data); err != nil {
		return nil, err
	}
	// File segment devices are opened per call and must be closed;
	// memory ones are the directory's own and stay open.
	files := src.dir != ""
	copyOne := func(open func(wal.SegmentDir) (storage.Device, error)) error {
		from, err := open(src.logs)
		if err != nil {
			return err
		}
		to, err := open(dst.logs)
		if err != nil {
			return err
		}
		err = copyDevice(to, from)
		if files {
			from.Close()
			if cerr := to.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	seqs, err := src.logs.ListSegments()
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		if err := copyOne(func(d wal.SegmentDir) (storage.Device, error) { return d.OpenSegment(seq) }); err != nil {
			return nil, err
		}
	}
	if err := copyOne(wal.SegmentDir.OpenManifest); err != nil {
		return nil, err
	}
	return dst, nil
}

func copyDevice(dst, src storage.Device) error {
	size, err := src.Size()
	if err != nil {
		return err
	}
	buf := make([]byte, 1<<20)
	for off := int64(0); off < size; off += int64(len(buf)) {
		n := int(min(int64(len(buf)), size-off))
		if _, err := src.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if _, err := dst.WriteAt(buf[:n], off); err != nil {
			return err
		}
	}
	return nil
}

// setup opens a fresh store, imports the preload and checkpoints it. It
// returns the WAL bytes the import appended.
func (r *runner) setup(i int, keys []string, vals [][]byte) (*store, time.Duration, uint64, error) {
	runtime.GC()
	start := time.Now()
	st, err := r.newStore(i)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := r.open(st); err != nil {
		return nil, 0, 0, err
	}
	lsn := st.db.Log().NextLSN()
	if err := st.db.Import(keys, vals); err != nil {
		return nil, 0, 0, fmt.Errorf("import: %w", err)
	}
	walBytes := uint64(st.db.Log().NextLSN() - lsn)
	if _, err := st.db.CheckpointSync(); err != nil {
		return nil, 0, 0, fmt.Errorf("checkpoint: %w", err)
	}
	return st, time.Since(start), walBytes, nil
}

// setupRuns is how many times a run sets its store up; setup_s is the
// median of their times.
const setupRuns = 5

// tailOps is how many operations run between the last synchronous
// checkpoint and the simulated crash, so recovery replays the same
// amount of log on every run.
const tailOps = 2000

// recoveryRuns is how many copies of the crashed state are reopened.
// recovery_cpu_s is the median of the CPU time each reopen takes. On a
// shared host the hypervisor takes the CPU away for stretches of tens
// of seconds, which moved the wall time of whole runs' reopens by a
// quarter and more; CPU time does not count those stretches.
const recoveryRuns = 15

func (r *runner) run() (*result, error) {
	sp := r.sp
	m := newModel(sp.universe)
	dataRng := rand.New(rand.NewSource(r.cfg.seed))
	pre := sp.preload(sp.universe)
	keys, vals := make([]string, len(pre)), make([][]byte, len(pre))
	var importBytes int64
	for i, ord := range pre {
		keys[i], vals[i] = m.keys[ord], randValue(dataRng)
		m.put(ord, vals[i])
		importBytes += int64(len(keys[i]) + len(vals[i]))
	}

	// Throwaway set-ups first, so the kept one runs right before timing.
	setups := make([]float64, 0, setupRuns)
	var st *store
	var importWAL uint64
	for i := 0; i < setupRuns; i++ {
		s, d, w, err := r.setup(i, keys, vals)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("closing set-up store: %w", err)
			}
			continue
		}
		st, importWAL = s, w
	}
	keys, vals = nil, nil

	gen := sp.newGen(rand.New(rand.NewSource(r.cfg.seed+1)), sp.universe)
	log := st.db.Log()
	rolls0, lsn0 := log.Rolls(), log.NextLSN()
	ph := r.measure(st.db, m, gen)
	walBytes := uint64(log.NextLSN() - lsn0)
	// Summarise the latency samples and drop them, so the heap the
	// reopens below run against does not follow the run's throughput.
	opsRow := ph.kindRow()
	opsPerSec, p50, p95 := ph.windowOpsPerSec(), ph.all.pct(0.50), median(ph.windowPct(0.95))
	ph.kinds, ph.all, ph.done = [numKinds]samples{}, nil, nil

	// Timed phase over. Checkpoint (truncating the WAL), run a fixed
	// tail of operations, then crash.
	walSize, walRolls := log.Size(), log.Rolls()-rolls0
	ckptFails, _ := st.db.CheckpointStatus()
	ph.ckptFails += int(ckptFails)
	if _, err := st.db.CheckpointSync(); err != nil {
		return nil, fmt.Errorf("checkpoint after the timed phase: %w", err)
	}
	ctx := context.Background()
	var tailBytes int64
	for i := 0; i < tailOps; i++ {
		o := gen()
		err := m.apply(o, call(ctx, st.db, m.keys[o.ord], o))
		r.attempted++
		if err != nil {
			r.fail(fmt.Errorf("crash tail: %w", err))
		} else if o.kind == opPut {
			tailBytes += int64(len(m.keys[o.ord]) + len(o.val))
		}
	}
	// The engine's heap is the live heap with the store open less the
	// live heap once it has crashed: the harness's own data and the
	// devices, memory ones included, count in both and cancel.
	engineHeap := liveHeap()
	st.crash()
	engineHeap -= liveHeap()
	// Recover several copies of the crashed state and verify each; the
	// first is checked against every key the run put.
	recoveries := make([]float64, 0, recoveryRuns)
	recoveryCPU := make([]float64, 0, recoveryRuns)
	var dataSize int64
	for i := 0; i < recoveryRuns; i++ {
		c, err := r.clone(st, i)
		if err != nil {
			return nil, fmt.Errorf("copying the crashed store: %w", err)
		}
		runtime.GC()
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := r.open(c); err != nil {
			return nil, fmt.Errorf("reopen after crash: %w", err)
		}
		wall := time.Since(t0)
		cpu1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, wall.Seconds())
		recoveryCPU = append(recoveryCPU, (cpu1 - cpu0).Seconds())
		a, f, ferr := m.verify(ctx, c.db, rand.New(rand.NewSource(r.cfg.seed+2)), 1000, i == 0)
		r.attempted += a
		r.failed += f
		if ferr != nil && r.firstErr == nil {
			r.firstErr = fmt.Errorf("after crash: %w", ferr)
		}
		if dataSize, err = c.data.Size(); err != nil {
			return nil, err
		}
		if err := c.close(); err != nil {
			return nil, fmt.Errorf("closing store: %w", err)
		}
	}
	if err := st.release(); err != nil {
		return nil, err
	}

	// WAL amplification of the workload's writes: the timed puts, or
	// the preload on a workload whose timed phase writes nothing.
	walAmp := float64(importWAL) / float64(importBytes)
	if ph.userBytes > 0 {
		walAmp = float64(walBytes) / float64(ph.userBytes)
	}
	row := map[string]any{
		"workload": sp.name,
		"seed":     r.cfg.seed,
		"seconds":  r.cfg.seconds,
		"trace":    r.cfg.trace,
		"host":     hostBlock(r.dir, sp),
		"ops":      opsRow,
	}
	res := &result{row: row}
	if !r.cfg.trace {
		res.metrics = map[string]metric{
			"ops_per_s":               {opsPerSec, "1/s"},
			"p50_us":                  {p50, "us"},
			"p95_us":                  {p95, "us"},
			"wal_bytes_per_user_byte": {walAmp, "B/B"},
			"space_per_written_byte":  {float64(dataSize) / float64(importBytes+ph.userBytes+tailBytes), "B/B"},
			"recovery_cpu_s":          {median(recoveryCPU), "s"},
			"heap_mib":                {float64(engineHeap) / (1 << 20), "MiB"},
			"setup_s":                 {median(setups), "s"},
		}
		row["end_to_end"] = res.metrics
	} else {
		res.metrics = r.layerMetrics(ph, walSize, walRolls)
		row["per_layer"] = res.metrics
		path := filepath.Join(r.cfg.dir, "spans-"+sp.name+".tsv.gz")
		if err := r.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		row["spans"] = path
	}
	row["failed_op_ratio"] = float64(r.failed) / float64(r.attempted)
	row["setup_s_each"] = setups
	row["recovery_s_each"] = recoveries
	row["recovery_cpu_s_each"] = recoveryCPU
	res.attempted, res.failed, res.firstErr = r.attempted, r.failed, r.firstErr
	return res, nil
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// samples collects latencies in nanoseconds.
type samples []int64

// pct is the nearest-rank percentile in microseconds.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := int(p*float64(len(c))+0.999999) - 1
	rank = max(0, min(rank, len(c)-1))
	return float64(c[rank]) / 1e3
}

func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// upperQuartile is the nearest-rank 75th percentile.
func upperQuartile(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[(3*len(c)+3)/4-1]
}

// cpuTime is the CPU time the process has used so far, all threads.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// counters is a snapshot of the counters the engine already keeps.
type counters struct {
	at                              time.Time
	pool                            buffer.Stats
	lsn, syncs                      uint64
	mallocs, allocBytes, gcs, pause uint64
}

func snapshot(db *sbdms.DB) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		at:         time.Now(),
		pool:       db.Pool().Stats(),
		lsn:        uint64(db.Log().NextLSN()),
		syncs:      db.Log().Syncs(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcs:        uint64(ms.NumGC),
		pause:      ms.PauseTotalNs,
	}
}

// sliceTotals accumulates counter deltas and client work over a set of
// slices of the timed phase.
type sliceTotals struct {
	wall                            time.Duration
	ops, commits                    int
	userBytes                       int64
	pool                            buffer.Stats
	walBytes, syncs                 uint64
	mallocs, allocBytes, gcs, pause uint64
}

func (s *sliceTotals) add(a, b counters, ops, commits int, userBytes int64) {
	s.wall += b.at.Sub(a.at)
	s.ops += ops
	s.commits += commits
	s.userBytes += userBytes
	s.pool.Hits += b.pool.Hits - a.pool.Hits
	s.pool.Misses += b.pool.Misses - a.pool.Misses
	s.pool.Evictions += b.pool.Evictions - a.pool.Evictions
	s.pool.Flushes += b.pool.Flushes - a.pool.Flushes
	s.walBytes += b.lsn - a.lsn
	s.syncs += b.syncs - a.syncs
	s.mallocs += b.mallocs - a.mallocs
	s.allocBytes += b.allocBytes - a.allocBytes
	s.gcs += b.gcs - a.gcs
	s.pause += b.pause - a.pause
}

// phase is the outcome of the timed phase.
type phase struct {
	wall      time.Duration
	userBytes int64
	start     time.Time
	kinds     [numKinds]samples
	all       samples
	done      []int64 // completion time of each op, ns since start
	ckpts     int
	ckptFails int
	// With tracing: traced and untraced slices.
	traced, untraced sliceTotals
}

func (ph *phase) kindRow() map[string]any {
	out := map[string]any{}
	for k, s := range ph.kinds {
		if len(s) > 0 {
			out[kindNames[k]] = map[string]any{"n": len(s), "p50_us": s.pct(0.5), "p95_us": s.pct(0.95), "p99_us": s.pct(0.99)}
		}
	}
	out["checkpoints"] = ph.ckpts
	out["p99_us"] = ph.all.pct(0.99)
	out["ops_per_s_windows"] = ph.windowCounts()
	out["p95_us_windows"] = ph.windowPct(0.95)
	out["p99_us_windows"] = ph.windowPct(0.99)
	return out
}

// window is the length of the slices of the timed phase whose quantiles
// the throughput and tail-latency metrics report, so that a burst of
// host noise moves one window rather than the whole run.
const window = time.Second

// windowCounts is the number of operations completed in each whole
// window.
func (ph *phase) windowCounts() []int {
	win := make([]int, int(ph.wall/window))
	for _, t := range ph.done {
		if i := int(t / int64(window)); i < len(win) {
			win[i]++
		}
	}
	return win
}

// windowOpsPerSec is the upper quartile of the throughput of whole
// windows. The hypervisor of a shared host takes the CPU away for
// stretches of tens of seconds, which lowered the median window of
// whole runs by a quarter; the faster windows are the ones it left
// alone. The engine's own pauses (collections, checkpoints) recur many
// times a second, so every window still pays for them.
func (ph *phase) windowOpsPerSec() float64 {
	win := ph.windowCounts()
	v := make([]float64, len(win))
	for i, n := range win {
		v[i] = float64(n) / window.Seconds()
	}
	return upperQuartile(v)
}

// windowPct is the p-th percentile of each whole window.
func (ph *phase) windowPct(p float64) []float64 {
	var v []float64
	lo := 0
	for i := range ph.windowCounts() {
		end := int64(i+1) * int64(window)
		hi := lo
		for hi < len(ph.done) && ph.done[hi] < end {
			hi++
		}
		v = append(v, ph.all[lo:hi].pct(p))
		lo = hi
	}
	return v
}

// sliceLen is how long tracing stays on or off in a traced run;
// alternating spreads drift over both halves.
const sliceLen = 200 * time.Millisecond

// measure runs the closed-loop client for the configured time.
func (r *runner) measure(db *sbdms.DB, m *model, gen func() op) *phase {
	ph := &phase{}
	ctx := context.Background()
	var reqID int64
	traced := false
	sliceStart := snapshot(db)
	var sliceOps, sliceCommits int
	var sliceBytes int64
	endSlice := func() {
		c := snapshot(db)
		if traced {
			ph.traced.add(sliceStart, c, sliceOps, sliceCommits, sliceBytes)
		} else {
			ph.untraced.add(sliceStart, c, sliceOps, sliceCommits, sliceBytes)
		}
		sliceStart, sliceOps, sliceCommits, sliceBytes = c, 0, 0, 0
	}

	if r.tr != nil {
		r.tr.lockClient()
		defer r.tr.unlockClient()
	}
	puts := 0
	start := time.Now()
	ph.start = start
	deadline := start.Add(time.Duration(r.cfg.seconds) * time.Second)
	nextSlice := start.Add(sliceLen)
	for now := start; now.Before(deadline); now = time.Now() {
		if r.tr != nil && !now.Before(nextSlice) {
			endSlice()
			traced = !traced
			r.tr.on.Store(traced)
			nextSlice = now.Add(sliceLen)
		}
		o := gen()
		key := m.keys[o.ord]
		opCtx := ctx
		if traced {
			reqID++
			opCtx = withRequest(ctx, reqID)
		}
		t0 := time.Now()
		root := int32(-1)
		if traced {
			root = r.tr.beginRequest(r.opNames[o.kind], reqID, t0)
		}
		rep := call(opCtx, db, key, o)
		t1 := time.Now()
		if root >= 0 {
			r.tr.endRequest(root, t1)
		}
		err := m.apply(o, rep)
		ph.record(o.kind, t1.Sub(t0), t1)
		if o.kind == opPut && err == nil {
			n := int64(len(m.keys[o.ord]) + len(o.val))
			ph.userBytes += n
			sliceBytes += n
			sliceCommits++
			puts++
		}
		r.attempted++
		sliceOps++
		if err != nil {
			r.fail(err)
		}
		if r.sp.ckptEvery > 0 && o.kind == opPut && puts%r.sp.ckptEvery == 0 && err == nil {
			r.checkpoint(db, ph, traced, &reqID)
		}
	}
	ph.wall = time.Since(start)
	if r.tr != nil {
		endSlice()
		r.tr.on.Store(false)
	}
	return ph
}

// reply is the engine's answer to one operation.
type reply struct {
	val  []byte
	keys []string
	err  error
}

// call makes the engine call of one operation on key, the operation's
// key string, and nothing else.
func call(ctx context.Context, db *sbdms.DB, key string, o op) reply {
	switch o.kind {
	case opGetSnap:
		v, err := db.GetSnapshotContext(ctx, key)
		return reply{val: v, err: err}
	case opGet:
		v, err := db.GetContext(ctx, key)
		return reply{val: v, err: err}
	case opScan:
		keys, err := db.ScanKeysSnapshotContext(ctx, key, o.n)
		return reply{keys: keys, err: err}
	default:
		return reply{err: db.PutContext(ctx, key, o.val)}
	}
}

// record keeps the latency d of an operation that completed at end.
func (ph *phase) record(k opKind, d time.Duration, end time.Time) {
	ph.kinds[k] = append(ph.kinds[k], int64(d))
	ph.all = append(ph.all, int64(d))
	ph.done = append(ph.done, int64(end.Sub(ph.start)))
}

// checkpoint starts a background checkpoint, as an operator would on a
// schedule; a failure counts against the run.
func (r *runner) checkpoint(db *sbdms.DB, ph *phase, traced bool, reqID *int64) {
	root := int32(-1)
	if traced {
		*reqID++
		root = r.tr.beginRequest(r.ckptName, *reqID, time.Now())
	}
	_, err := db.Checkpoint()
	if root >= 0 {
		r.tr.endRequest(root, time.Now())
	}
	ph.ckpts++
	r.attempted++
	if err != nil {
		ph.ckptFails++
		r.fail(fmt.Errorf("checkpoint: %w", err))
	}
}
