package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The tracer times calls into each layer's public surface from outside
// the engine: a core.Binding wraps every deployed service, and device
// wrappers sit under the data device and the WAL segment directory.
// Spans are kept in memory and written out when the run ends.

// span is one timed call. parent indexes the enclosing span (-1 for a
// root); req is the client request id (0 for background work).
type span struct {
	start, end int64 // ns since the tracer's epoch
	req        int64
	parent     int32
	name       uint16
	bytes      int32
}

type reqKey struct{}

// withRequest tags ctx with a client request id for the service spans.
func withRequest(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	names []string
	index map[string]uint16

	// clientTid is the OS thread the client goroutine is locked to
	// while measuring: a device call on that thread was made by the
	// client. stack (the open spans of the request in flight) and req
	// are touched only on the client goroutine.
	clientTid int
	stack     []int32
	req       int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), index: map[string]uint16{}, clientTid: -1}
}

// lockClient wires the calling (client) goroutine to its OS thread, so
// device calls can tell it from background goroutines by thread id.
func (t *tracer) lockClient() {
	runtime.LockOSThread()
	t.clientTid = syscall.Gettid()
}

func (t *tracer) unlockClient() {
	t.clientTid = -1
	runtime.UnlockOSThread()
}

// name interns a span name.
func (t *tracer) name(s string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint16(len(t.names))
	t.names = append(t.names, s)
	t.index[s] = i
	return i
}

func (t *tracer) now() int64 { return t.at(time.Now()) }

// at converts a wall-clock reading to ns since the tracer's epoch.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

func (t *tracer) finish(id int32, end int64) {
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// beginRequest opens a root span, starting at start, for a client
// request (client goroutine only) and makes it the parent of the calls
// made under it.
func (t *tracer) beginRequest(name uint16, req int64, start time.Time) int32 {
	t.req = req
	id := t.add(span{start: t.at(start), req: req, parent: -1, name: name})
	t.stack = append(t.stack[:0], id)
	return id
}

// endRequest closes a root span at end, the moment the engine call
// returned, so the client's own work after it stays outside the span.
func (t *tracer) endRequest(id int32, end time.Time) {
	t.finish(id, t.at(end))
	t.stack = t.stack[:0]
	t.req = 0
}

// Bind implements core.Binding: each invocation becomes a span carrying
// the request id from its context.
func (t *tracer) Bind(target core.Invoker) core.Invoker {
	svc := "service"
	if n, ok := target.(interface{ Name() string }); ok {
		svc = n.Name()
	}
	var mu sync.Mutex
	ops := map[string]uint16{}
	opName := func(op string) uint16 {
		mu.Lock()
		defer mu.Unlock()
		i, ok := ops[op]
		if !ok {
			i = t.name(svc + "." + op)
			ops[op] = i
		}
		return i
	}
	return core.InvokerFunc(func(ctx context.Context, op string, req any) (any, error) {
		if !t.on.Load() {
			return target.Invoke(ctx, op, req)
		}
		rid, _ := ctx.Value(reqKey{}).(int64)
		s := span{start: t.now(), req: rid, parent: -1, name: opName(op)}
		if rid == 0 || len(t.stack) == 0 {
			// Not a client request: a background root.
			id := t.add(s)
			resp, err := target.Invoke(ctx, op, req)
			t.finish(id, t.now())
			return resp, err
		}
		// Services run synchronously on the client goroutine.
		s.parent = t.stack[len(t.stack)-1]
		id := t.add(s)
		t.stack = append(t.stack, id)
		resp, err := target.Invoke(ctx, op, req)
		t.finish(id, t.now())
		t.stack = t.stack[:len(t.stack)-1]
		return resp, err
	})
}

// Protocol implements core.Binding.
func (t *tracer) Protocol() string { return "local+trace" }

// device opens a span for a device call: a child of the innermost open
// span when made on the client goroutine during a request, else a
// background root.
func (t *tracer) device(name uint16, n int) int32 {
	s := span{start: t.now(), parent: -1, name: name, bytes: int32(n)}
	if syscall.Gettid() == t.clientTid && len(t.stack) > 0 {
		s.parent = t.stack[len(t.stack)-1]
		s.req = t.req
	}
	return t.add(s)
}

// tracedDevice times ReadAt, WriteAt and Sync of a device.
type tracedDevice struct {
	storage.Device
	t                 *tracer
	read, write, sync uint16
}

func (t *tracer) wrapDevice(d storage.Device, layer string) *tracedDevice {
	return &tracedDevice{Device: d, t: t,
		read: t.name(layer + ".read"), write: t.name(layer + ".write"), sync: t.name(layer + ".sync")}
}

func (d *tracedDevice) ReadAt(p []byte, off int64) (int, error) {
	if !d.t.on.Load() {
		return d.Device.ReadAt(p, off)
	}
	id := d.t.device(d.read, len(p))
	n, err := d.Device.ReadAt(p, off)
	d.t.finish(id, d.t.now())
	return n, err
}

func (d *tracedDevice) WriteAt(p []byte, off int64) (int, error) {
	if !d.t.on.Load() {
		return d.Device.WriteAt(p, off)
	}
	id := d.t.device(d.write, len(p))
	n, err := d.Device.WriteAt(p, off)
	d.t.finish(id, d.t.now())
	return n, err
}

func (d *tracedDevice) Sync() error {
	if !d.t.on.Load() {
		return d.Device.Sync()
	}
	id := d.t.device(d.sync, 0)
	err := d.Device.Sync()
	d.t.finish(id, d.t.now())
	return err
}

// tracedSegments wraps every WAL segment and the manifest it opens.
type tracedSegments struct {
	wal.SegmentDir
	t *tracer
}

func (t *tracer) wrapSegments(d wal.SegmentDir) *tracedSegments {
	return &tracedSegments{SegmentDir: d, t: t}
}

func (d *tracedSegments) OpenSegment(seq uint64) (storage.Device, error) {
	s, err := d.SegmentDir.OpenSegment(seq)
	if err != nil {
		return nil, err
	}
	return d.t.wrapDevice(s, "wal"), nil
}

func (d *tracedSegments) OpenManifest() (storage.Device, error) {
	s, err := d.SegmentDir.OpenManifest()
	if err != nil {
		return nil, err
	}
	return d.t.wrapDevice(s, "wal"), nil
}

// layerTotals are span aggregates by layer.
type layerTotals struct {
	invokes                         int
	dispatchNs, kvSelfNs, recSelfNs int64
	ckpts                           int
	ckptNs                          int64
	dev                             map[string]*devTotals // "storage.read", "wal.sync", ...
}

type devTotals struct {
	calls int
	ns    int64
	bytes int64
}

// totals derives each layer's self time (span minus its children) and
// the device call counts from the recorded spans. Call once tracing is
// off and background calls have ended.
func (t *tracer) totals(ckptName uint16) layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	lt := layerTotals{dev: map[string]*devTotals{}}
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		d, self := s.end-s.start, s.end-s.start-child[i]
		name := t.names[s.name]
		switch {
		case strings.HasPrefix(name, "storage.") || strings.HasPrefix(name, "wal."):
			dt := lt.dev[name]
			if dt == nil {
				dt = &devTotals{}
				lt.dev[name] = dt
			}
			dt.calls++
			dt.ns += d
			dt.bytes += int64(s.bytes)
		case s.name == ckptName:
			lt.ckpts++
			lt.ckptNs += d
		case s.req == 0:
			// Background invocations, such as the coordinator's pings,
			// belong to no request.
		case s.parent < 0:
			lt.dispatchNs += self
		case strings.HasPrefix(name, "kv."):
			lt.invokes++
			lt.kvSelfNs += self
		case strings.HasPrefix(name, "record."):
			lt.invokes++
			lt.recSelfNs += self
		default:
			lt.invokes++
		}
	}
	return lt
}

// write saves the spans as gzipped TSV: id, parent, request, name,
// start and end (ns since the tracer started), bytes.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // fails only for an invalid level
	w := bufio.NewWriter(zw)
	t.mu.Lock()
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tbytes")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.req, t.names[s.name], s.start, s.end, s.bytes)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
