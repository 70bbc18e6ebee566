package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func echoContract(iface string) *Contract {
	return &Contract{
		Interface: iface,
		Operations: []OpSpec{
			{Name: "echo", In: "string", Out: "string", Semantic: "test.echo"},
			{Name: "fail", In: "nil", Out: "nil", Semantic: "test.fail"},
		},
	}
}

func newEchoService(t testing.TB, name, iface string) *BaseService {
	t.Helper()
	s := NewService(name, echoContract(iface))
	Handle(s, "echo", func(ctx context.Context, str string) (string, error) {
		return name + ":" + str, nil
	})
	s.Handle("fail", func(ctx context.Context, req any) (any, error) {
		return nil, errors.New("boom")
	})
	WithPing(s)
	if err := s.Start(context.Background()); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	return s
}

func TestServiceLifecycle(t *testing.T) {
	ctx := context.Background()
	s := NewService("svc", echoContract("test.Echo"))
	s.Handle("echo", func(ctx context.Context, req any) (any, error) { return req, nil })
	if got := s.State(); got != StateCreated {
		t.Fatalf("initial state = %v, want created", got)
	}
	if _, err := s.Invoke(ctx, "echo", "x"); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("invoke before start: err = %v, want ErrNotRunning", err)
	}
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateRunning {
		t.Fatalf("state after start = %v", got)
	}
	if err := s.Start(ctx); err != nil {
		t.Fatalf("second start should be idempotent: %v", err)
	}
	out, err := s.Invoke(ctx, "echo", "x")
	if err != nil || out != "x" {
		t.Fatalf("invoke = (%v, %v), want (x, nil)", out, err)
	}
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateStopped {
		t.Fatalf("state after stop = %v", got)
	}
	if _, err := s.Invoke(ctx, "echo", "x"); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("invoke after stop: err = %v", err)
	}
}

func TestServiceStartHookFailure(t *testing.T) {
	s := NewService("svc", echoContract("test.Echo"))
	s.OnStart(func(ctx context.Context) error { return errors.New("no disk") })
	if err := s.Start(context.Background()); err == nil {
		t.Fatal("start should fail")
	}
	if s.State() != StateFailed {
		t.Fatalf("state = %v, want failed", s.State())
	}
}

func TestServiceUnknownOp(t *testing.T) {
	s := newEchoService(t, "svc", "test.Echo")
	_, err := s.Invoke(context.Background(), "nosuch", nil)
	if !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v, want ErrUnknownOp", err)
	}
}

type typedReq struct{ N int }

func TestHandleTypedPayloads(t *testing.T) {
	ctx := context.Background()
	s := NewService("typed", &Contract{
		Interface: "test.Typed",
		Operations: []OpSpec{
			{Name: "double", In: "core.typedReq", Out: "int"},
			{Name: "count", In: "nil", Out: "int"},
		},
	})
	Handle(s, "double", func(ctx context.Context, r typedReq) (int, error) { return 2 * r.N, nil })
	Handle(s, "count", func(ctx context.Context, _ struct{}) (int, error) { return 7, nil })
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// A value and a pointer are both accepted and decoded once.
	for _, req := range []any{typedReq{N: 3}, &typedReq{N: 3}} {
		if got, err := Call[int](ctx, s, "double", req); err != nil || got != 6 {
			t.Fatalf("double(%T) = %d, %v; want 6", req, got, err)
		}
	}
	if got, err := Call[int](ctx, s, "count", nil); err != nil || got != 7 {
		t.Fatalf("count(nil) = %d, %v; want 7", got, err)
	}
	// Anything else is a RequestError carrying the spec's In type,
	// including a nil pointer and a payload sent to a nil-In op.
	for _, c := range []struct {
		op  string
		req any
		got string
	}{
		{"double", "3", "string"},
		{"double", (*typedReq)(nil), "repro/internal/core.typedReq"},
		{"double", nil, "nil"},
		{"count", 1, "int"},
	} {
		_, err := s.Invoke(ctx, c.op, c.req)
		var re *RequestError
		if !errors.As(err, &re) {
			t.Fatalf("%s(%T): err = %v, want *RequestError", c.op, c.req, err)
		}
		spec, _ := s.Contract().Op(c.op)
		if re.Op != c.op || re.Want != spec.In || re.Got != c.got {
			t.Fatalf("%s(%T): got %+v, want {Op:%s Want:%s Got:%s}", c.op, c.req, re, c.op, spec.In, c.got)
		}
	}
}

func TestCallRejectsMistypedReply(t *testing.T) {
	ctx := context.Background()
	reply := func(v any) Invoker {
		return InvokerFunc(func(context.Context, string, any) (any, error) { return v, nil })
	}
	if got, err := Call[[]byte](ctx, reply([]byte("v")), "get", nil); err != nil || string(got) != "v" {
		t.Fatalf("Call = %q, %v", got, err)
	}
	n := uint64(4)
	if got, err := Call[uint64](ctx, reply(&n), "len", nil); err != nil || got != 4 {
		t.Fatalf("Call(*uint64) = %d, %v", got, err)
	}
	for _, v := range []any{nil, "v", (*[]byte)(nil)} {
		if _, err := Call[[]byte](ctx, reply(v), "get", nil); !errors.Is(err, ErrReplyType) {
			t.Fatalf("reply %T: err = %v, want ErrReplyType", v, err)
		}
	}
	boom := errors.New("boom")
	failing := InvokerFunc(func(context.Context, string, any) (any, error) { return []byte("x"), boom })
	if got, err := Call[[]byte](ctx, failing, "get", nil); !errors.Is(err, boom) || got != nil {
		t.Fatalf("Call on error = %q, %v; want nil, boom", got, err)
	}
}

func TestTransformRejectsMistypedPayload(t *testing.T) {
	f := Transform(func(r typedReq) int { return r.N + 1 })
	if got, err := f(typedReq{N: 1}); err != nil || got != 2 {
		t.Fatalf("f(typedReq) = %v, %v", got, err)
	}
	if got, err := f(&typedReq{N: 2}); err != nil || got != 3 {
		t.Fatalf("f(*typedReq) = %v, %v", got, err)
	}
	if _, err := f("nope"); err == nil {
		t.Fatal("mistyped payload converted without error")
	}
}

func TestHandleUndeclaredOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for undeclared operation handler")
		}
	}()
	s := NewService("svc", echoContract("test.Echo"))
	s.Handle("undeclared", func(ctx context.Context, req any) (any, error) { return nil, nil })
}

func TestServiceStats(t *testing.T) {
	ctx := context.Background()
	s := newEchoService(t, "svc", "test.Echo")
	for i := 0; i < 5; i++ {
		if _, err := s.Invoke(ctx, "echo", "hi"); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = s.Invoke(ctx, "fail", nil)
	st := s.Stats()
	if st["echo"].Calls != 5 || st["echo"].Errors != 0 {
		t.Fatalf("echo stats = %+v", st["echo"])
	}
	if st["fail"].Calls != 1 || st["fail"].Errors != 1 {
		t.Fatalf("fail stats = %+v", st["fail"])
	}
	if st["echo"].Mean() < 0 {
		t.Fatal("mean must be non-negative")
	}
}

func TestServiceMaxConcurrentPolicy(t *testing.T) {
	ctx := context.Background()
	c := echoContract("test.Echo")
	c.Policy.MaxConcurrent = 1
	s := NewService("svc", c)
	release := make(chan struct{})
	started := make(chan struct{})
	s.Handle("echo", func(ctx context.Context, req any) (any, error) {
		close(started)
		<-release
		return req, nil
	})
	s.Handle("fail", func(ctx context.Context, req any) (any, error) { return nil, nil })
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Invoke(ctx, "echo", "block")
	}()
	<-started
	_, err := s.Invoke(ctx, "fail", nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	close(release)
	wg.Wait()
	if _, err := s.Invoke(ctx, "fail", nil); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestWithPing(t *testing.T) {
	s := newEchoService(t, "pinger", "test.Echo")
	out, err := s.Invoke(context.Background(), PingOp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != "pong:pinger" {
		t.Fatalf("ping = %v", out)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateCreated: "created", StateStarting: "starting", StateRunning: "running",
		StateDegraded: "degraded", StateStopping: "stopping", StateStopped: "stopped",
		StateFailed: "failed", State(99): "state(99)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}

func TestServiceConcurrentInvoke(t *testing.T) {
	ctx := context.Background()
	s := newEchoService(t, "svc", "test.Echo")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				out, err := s.Invoke(ctx, "echo", fmt.Sprint(i))
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if out != fmt.Sprintf("svc:%d", i) {
					t.Errorf("out = %v", out)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := s.Stats()["echo"].Calls; got != 3200 {
		t.Fatalf("calls = %d, want 3200", got)
	}
}

func TestOpStatsMeanZero(t *testing.T) {
	var o OpStats
	if o.Mean() != 0 {
		t.Fatal("mean of zero calls must be 0")
	}
	o = OpStats{Calls: 2, TotalDur: 10 * time.Millisecond}
	if o.Mean() != 5*time.Millisecond {
		t.Fatalf("mean = %v", o.Mean())
	}
}
