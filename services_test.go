package sbdms_test

// Contract conformance of the service layer: every operation of the
// Disk, KV, Record, Query, shard and replication services rejects a
// mistyped payload with a *core.RequestError naming the operation, and
// a shard service adapts to the KV interface, because its contract is
// the KV op table with an epoch envelope around each request.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	sbdms "repro"
	"repro/internal/cluster"
	"repro/internal/core"
)

// bogusPayload matches no operation's request type.
type bogusPayload struct{}

func TestServicesRejectMistypedPayloads(t *testing.T) {
	ctx := context.Background()
	c, err := cluster.New(cluster.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCluster(t, c)
	leader := c.Node(cluster.LeaderID(0))

	// The payload is rejected before any backend is touched, so the
	// local services need none.
	services := []core.Service{
		sbdms.NewDiskService("disk", nil),
		sbdms.NewKVService("kv", sbdms.NewKVClient(nil)),
		sbdms.NewRecordService("record", sbdms.NewKVClient(nil)),
		sbdms.NewQueryService("query", nil),
	}
	for _, name := range []string{cluster.KVServiceName, cluster.ReplServiceName} {
		reg, err := leader.Registry().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		services = append(services, reg.Invoker.(core.Service))
	}
	for _, svc := range services {
		if err := svc.Start(ctx); err != nil {
			t.Fatal(err)
		}
		for _, op := range svc.Contract().Operations {
			if op.Name == core.PingOp { // liveness probe: any payload
				continue
			}
			_, err := svc.Invoke(ctx, op.Name, bogusPayload{})
			var re *core.RequestError
			if !errors.As(err, &re) {
				t.Errorf("%s.%s: err = %v, want *core.RequestError", svc.Name(), op.Name, err)
				continue
			}
			if re.Op != op.Name || re.Want != op.In {
				t.Errorf("%s.%s: RequestError %+v, want Op %q Want %q", svc.Name(), op.Name, re, op.Name, op.In)
			}
		}
	}

	// A shard op accepts its envelope by value and by pointer.
	if err := c.Router().Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	reg, err := leader.Registry().Lookup(cluster.KVServiceName)
	if err != nil {
		t.Fatal(err)
	}
	epoch := c.Map().Epoch
	for _, req := range []any{cluster.GetReq{Epoch: epoch, Key: "k"}, &cluster.GetReq{Epoch: epoch, Key: "k"}} {
		got, err := core.Call[[]byte](ctx, reg.Invoker, "get", req)
		if err != nil || string(got) != "v" {
			t.Fatalf("shard get with %T = %q, %v; want v", req, got, err)
		}
	}
}

// TestClusterShardAdaptsToKV generates an adaptor from the KV interface
// onto a live shard leader, the paper's adaptation path (Section 3.6):
// the only payload transforms needed stamp the current epoch onto each
// KV request type.
func TestClusterShardAdaptsToKV(t *testing.T) {
	ctx := context.Background()
	c, err := cluster.New(cluster.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCluster(t, c)
	reg, err := c.Node(cluster.LeaderID(0)).Registry().Lookup(cluster.KVServiceName)
	if err != nil {
		t.Fatal(err)
	}

	epoch := c.Map().Epoch
	repo := core.NewRepository()
	repo.PutTransform("string", "cluster.GetReq", core.Transform(func(k string) cluster.GetReq {
		return cluster.GetReq{Epoch: epoch, Key: k}
	}))
	repo.PutTransform("sbdms.KVPutRequest", "cluster.PutReq", core.Transform(func(r sbdms.KVPutRequest) cluster.PutReq {
		return cluster.PutReq{Epoch: epoch, Key: r.Key, Val: r.Val}
	}))
	repo.PutTransform("sbdms.KVBatchRequest", "cluster.BatchReq", core.Transform(func(r sbdms.KVBatchRequest) cluster.BatchReq {
		return cluster.BatchReq{Epoch: epoch, Keys: r.Keys, Vals: r.Vals}
	}))
	repo.PutTransform("sbdms.KVImportRequest", "cluster.BatchReq", core.Transform(func(r sbdms.KVImportRequest) cluster.BatchReq {
		return cluster.BatchReq{Epoch: epoch, Keys: r.Keys, Vals: r.Vals}
	}))
	repo.PutTransform("sbdms.KVScanRequest", "cluster.ScanReq", core.Transform(func(r sbdms.KVScanRequest) cluster.ScanReq {
		return cluster.ScanReq{Epoch: epoch, From: r.Key, N: r.N}
	}))
	repo.PutTransform("nil", "cluster.LenReq", func(any) (any, error) { return cluster.LenReq{Epoch: epoch}, nil })

	adaptor, err := core.GenerateAdaptor("kv-over-shard", sbdms.KVContract(), reg.Contract, reg.Invoker, repo)
	if err != nil {
		t.Fatalf("adapting the shard service to %s: %v", sbdms.IfaceKV, err)
	}
	kv := sbdms.NewKVClient(adaptor)
	for i := 0; i < 3; i++ {
		if err := kv.Put(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put through adaptor: %v", err)
		}
	}
	if got, err := kv.Get(ctx, "k1"); err != nil || string(got) != "v1" {
		t.Fatalf("get through adaptor = %q, %v; want v1", got, err)
	}
	if got, err := kv.GetSnapshot(ctx, "k2"); err != nil || string(got) != "v2" {
		t.Fatalf("getSnapshot through adaptor = %q, %v; want v2", got, err)
	}
	keys, err := kv.Scan(ctx, "k", 10)
	if err != nil || fmt.Sprint(keys) != "[k0 k1 k2]" {
		t.Fatalf("scan through adaptor = %v, %v; want [k0 k1 k2]", keys, err)
	}
	if n := kv.Len(); n != 3 {
		t.Fatalf("len through adaptor = %d, want 3", n)
	}
}
