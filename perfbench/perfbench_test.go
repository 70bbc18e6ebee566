package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro"
)

// loadedStore opens an in-memory store holding the first n ordinals of
// a model.
func loadedStore(t *testing.T, n int) (*sbdms.DB, *model) {
	t.Helper()
	db, err := sbdms.Open(sbdms.Options{Granularity: sbdms.Layered})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close(context.Background()) })
	m := newModel(2 * n)
	rng := rand.New(rand.NewSource(1))
	keys, vals := make([]string, n), make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = m.keys[i], randValue(rng)
		m.put(i, vals[i])
	}
	if err := db.Import(keys, vals); err != nil {
		t.Fatal(err)
	}
	return db, m
}

// TestVerifyDetectsCorruptModel corrupts one model entry at a time and
// requires every check that reads it to fail.
func TestVerifyDetectsCorruptModel(t *testing.T) {
	ctx := context.Background()
	db, m := loadedStore(t, 300)
	check := func() int {
		_, failed, _ := m.verify(ctx, db, rand.New(rand.NewSource(2)), 2*len(m.vals), true)
		return failed
	}
	if f := check(); f != 0 {
		t.Fatalf("clean model: %d failures", f)
	}

	// A wrong value.
	orig := m.vals[7]
	m.vals[7] = append([]byte(nil), orig...)
	m.vals[7][0] ^= 0xff
	m.written[7] = true
	if f := check(); f == 0 {
		t.Fatal("a corrupted value passed verification")
	}
	v, err := db.GetSnapshotContext(ctx, m.keys[7])
	if m.checkGet(7, v, err) == nil {
		t.Fatal("checkGet accepted a corrupted value")
	}
	m.vals[7] = orig

	// A key the model has lost: KVLen and the point read disagree.
	m.vals[8] = nil
	m.live--
	if f := check(); f == 0 {
		t.Fatal("a key missing from the model passed verification")
	}
	got, err := db.ScanKeysSnapshotContext(ctx, m.keys[5], 10)
	if m.checkScan(5, 10, got, err) == nil {
		t.Fatal("checkScan accepted a scan over a key missing from the model")
	}
}

// TestRunOutputContract runs a short workload and checks the result
// line: correct, no failures, and every metric of its mode.
func TestRunOutputContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine for seconds")
	}
	endToEnd := []string{"ops_per_s", "p50_us", "p95_us", "wal_bytes_per_user_byte",
		"space_per_written_byte", "recovery_cpu_s", "heap_mib", "setup_s"}
	cases := []struct {
		workload, trace string
		metrics         []string
	}{
		{"read-hot", "0", endToEnd},
		{"scan-evict", "0", endToEnd},
		{"put-durable", "0", endToEnd},
		{"put-mem", "1", []string{"core.invokes_per_op", "repro.record_us_per_op", "buffer.hit_ratio",
			"storage.writes_per_op", "wal.bytes_per_commit", "txn.checkpoint_call_us", "gc.allocs_per_op",
			"trace.overhead_ratio"}},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		code := run([]string{"--workload", c.workload, "--seed", "3", "--seconds", "2", "--trace", c.trace,
			"--dir", t.TempDir()}, &out, &errb)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", c.workload, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: %+v", c.workload, res)
		}
		for _, name := range c.metrics {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing", c.workload, name)
			}
		}
		if c.trace == "0" && len(res.Metrics) != len(c.metrics) {
			t.Errorf("%s: %d metrics, want %d", c.workload, len(res.Metrics), len(c.metrics))
		}
		if c.trace == "1" && res.Metrics["core.invokes_per_op"].Value < 2 {
			t.Errorf("%s: %v service invocations per op, want at least the two layered hops",
				c.workload, res.Metrics["core.invokes_per_op"].Value)
		}
	}
}
