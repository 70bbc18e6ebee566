package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// hostBlock describes where and how a row was measured; every row
// carries the same fields.
func hostBlock(dir string, sp spec) map[string]any {
	policy := "memory devices (Sync is a no-op); WAL forced on every commit (WALGroupWindow 0)"
	if sp.durable {
		policy = "file devices; WAL fsync on every commit (WALGroupWindow 0); data fsync by checkpoints"
	}
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"tmp_fs":       fsType(dir),
		"flush_policy": policy,
		"granularity":  "layered",
		"clients":      "1 closed-loop",
		"frames":       sp.frames,
		"universe":     sp.universe,
		"value_bytes":  valueSize,
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[uint64]string{
		0xef53:     "ext2/3/4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2fc12fc1: "zfs",
	}
	t := uint64(st.Type)
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", t)
}

// layerMetrics derives the per-layer metrics of a traced run. Span
// figures come from the traced slices; counter figures (buffer, WAL,
// runtime) from the untraced slices, which the tracer does not perturb.
func (r *runner) layerMetrics(ph *phase, walSize, walRolls uint64) map[string]metric {
	lt := r.tr.totals(r.ckptName)
	tr, un := ph.traced, ph.untraced
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	dev := func(name string) devTotals {
		if d := lt.dev[name]; d != nil {
			return *d
		}
		return devTotals{}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	sRead, sWrite, sSync := dev("storage.read"), dev("storage.write"), dev("storage.sync")
	wWrite, wSync := dev("wal.write"), dev("wal.sync")
	var userBytesPerByte float64
	if tr.userBytes > 0 {
		userBytesPerByte = float64(sWrite.bytes) / float64(tr.userBytes)
	}
	var overhead float64
	if tr.ops > 0 && un.ops > 0 {
		overhead = (float64(tr.ops) / tr.wall.Seconds()) / (float64(un.ops) / un.wall.Seconds())
	}
	return map[string]metric{
		"core.invokes_per_op":     {per(float64(lt.invokes), tr.ops), "count"},
		"core.dispatch_us_per_op": {per(us(lt.dispatchNs), tr.ops), "us"},
		"core.kv_self_us_per_op":  {per(us(lt.kvSelfNs), tr.ops), "us"},
		"repro.record_us_per_op":  {per(us(lt.recSelfNs), tr.ops), "us"},

		"buffer.pins_per_op":      {per(float64(un.pool.Hits+un.pool.Misses), un.ops), "count"},
		"buffer.hit_ratio":        {un.pool.HitRate(), "ratio"},
		"buffer.misses_per_op":    {per(float64(un.pool.Misses), un.ops), "count"},
		"buffer.evictions_per_op": {per(float64(un.pool.Evictions), un.ops), "count"},
		"buffer.flushes_per_op":   {per(float64(un.pool.Flushes), un.ops), "count"},

		"storage.reads_per_op":              {per(float64(sRead.calls), tr.ops), "count"},
		"storage.read_us_per_op":            {per(us(sRead.ns), tr.ops), "us"},
		"storage.writes_per_op":             {per(float64(sWrite.calls), tr.ops), "count"},
		"storage.write_us_per_op":           {per(us(sWrite.ns), tr.ops), "us"},
		"storage.write_bytes_per_user_byte": {userBytesPerByte, "B/B"},
		"storage.syncs_per_op":              {per(float64(sSync.calls), tr.ops), "count"},
		"storage.sync_us_per_op":            {per(us(sSync.ns), tr.ops), "us"},

		"wal.bytes_per_commit":    {per(float64(un.walBytes), un.commits), "B"},
		"wal.syncs_per_commit":    {per(float64(un.syncs), un.commits), "count"},
		"wal.fsync_us_per_commit": {per(us(wSync.ns), tr.commits), "us"},
		"wal.write_us_per_commit": {per(us(wWrite.ns), tr.commits), "us"},
		"wal.segment_rolls":       {float64(walRolls), "count"},
		"wal.retained_bytes":      {float64(walSize), "B"},

		"txn.checkpoint_call_us":  {per(us(lt.ckptNs), lt.ckpts), "us"},
		"txn.checkpoints":         {float64(ph.ckpts), "count"},
		"txn.checkpoint_failures": {float64(ph.ckptFails), "count"},

		"gc.allocs_per_op":   {per(float64(un.mallocs), un.ops), "count"},
		"gc.bytes_per_op":    {per(float64(un.allocBytes), un.ops), "B"},
		"gc.cycles_per_kop":  {per(1000*float64(un.gcs), un.ops), "count"},
		"gc.pause_us_per_op": {per(float64(un.pause)/1e3, un.ops), "us"},

		"trace.overhead_ratio": {overhead, "ratio"},
	}
}
