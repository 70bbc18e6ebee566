package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	sbdms "repro"
	"repro/internal/core"
)

// Router is the client side of the cluster: it fetches the shard map
// from the registry-published map service, routes every operation to
// the owning shard, and retries map-epoch rejections by refreshing and
// replanning the WHOLE operation. Multi-shard batches are planned under
// one epoch and every sub-request carries it, so a batch is either
// applied entirely under one map or entirely retried under the next —
// never split across epochs.
type Router struct {
	transport Transport
	fetch     func(ctx context.Context) (*Map, error)

	// MaxRetries bounds epoch-rejection replans (default 4). With 0 the
	// first rejection surfaces as a typed retryable ErrEpochChanged.
	MaxRetries int
	// RetryBackoff spaces replans while a map change propagates to
	// nodes (default 2ms).
	RetryBackoff time.Duration

	cur atomic.Pointer[Map]
}

// NewRouter creates a router fanning out through transport, refreshing
// its shard map via fetch.
func NewRouter(transport Transport, fetch func(ctx context.Context) (*Map, error)) *Router {
	return &Router{transport: transport, fetch: fetch, MaxRetries: 4, RetryBackoff: 2 * time.Millisecond}
}

// Map returns the router's current (possibly stale) shard map, fetching
// it on first use.
func (r *Router) Map(ctx context.Context) (*Map, error) {
	if m := r.cur.Load(); m != nil {
		return m, nil
	}
	return r.Refresh(ctx)
}

// Refresh re-fetches the shard map.
func (r *Router) Refresh(ctx context.Context) (*Map, error) {
	m, err := r.fetch(ctx)
	if err != nil {
		return nil, err
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("cluster: empty shard map at epoch %d", m.Epoch)
	}
	r.cur.Store(m)
	return m, nil
}

// withReplan runs fn against the current map, refreshing and fully
// re-running it on epoch or leadership rejections.
func (r *Router) withReplan(ctx context.Context, fn func(m *Map) error) error {
	m, err := r.Map(ctx)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		err = fn(m)
		if err == nil || (!IsEpochChanged(err) && !IsNotLeader(err) && !IsUnavailable(err)) {
			return err
		}
		if attempt >= r.MaxRetries {
			return fmt.Errorf("%w: %d replans exhausted (last: %v)", ErrEpochChanged, attempt+1, err)
		}
		if r.RetryBackoff > 0 {
			select {
			case <-time.After(r.RetryBackoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if m, err = r.Refresh(ctx); err != nil {
			return err
		}
	}
}

// Put writes one key through its shard leader.
func (r *Router) Put(ctx context.Context, key string, val []byte) error {
	return r.withReplan(ctx, func(m *Map) error {
		_, err := r.kv(m.Shards[m.ShardFor(key)].Leader).Invoke(ctx, "put", PutReq{Epoch: m.Epoch, Key: key, Val: val})
		return err
	})
}

// Delete removes one key through its shard leader.
func (r *Router) Delete(ctx context.Context, key string) error {
	return r.withReplan(ctx, func(m *Map) error {
		_, err := r.kv(m.Shards[m.ShardFor(key)].Leader).Invoke(ctx, "delete", GetReq{Epoch: m.Epoch, Key: key})
		return mapNotFound(err)
	})
}

// Get reads one key's latest committed value from its shard leader.
func (r *Router) Get(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := r.withReplan(ctx, func(m *Map) (err error) {
		out, err = core.Call[[]byte](ctx, r.kv(m.Shards[m.ShardFor(key)].Leader), "get", GetReq{Epoch: m.Epoch, Key: key})
		return mapNotFound(err)
	})
	return out, err
}

// GetSnapshot reads one key at the shard's replicated frontier,
// preferring a follower; an unreachable follower falls back to the
// leader's snapshot path.
func (r *Router) GetSnapshot(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := r.withReplan(ctx, func(m *Map) (err error) {
		s := m.Shards[m.ShardFor(key)]
		out, err = core.Call[[]byte](ctx, followerFirst{r.transport, s}, "getSnapshot", GetReq{Epoch: m.Epoch, Key: key})
		return mapNotFound(err)
	})
	return out, err
}

// kv addresses the shard KV service on node.
func (r *Router) kv(node NodeID) core.Invoker {
	return serviceAt{r.transport, node, KVServiceName}
}

// followerFirst addresses a shard's KV service at its first follower,
// falling back to the leader.
type followerFirst struct {
	t Transport
	s Shard
}

// Invoke implements core.Invoker.
func (f followerFirst) Invoke(ctx context.Context, op string, req any) (any, error) {
	targets := make([]NodeID, 0, 2)
	if len(f.s.Followers) > 0 {
		targets = append(targets, f.s.Followers[0])
	}
	targets = append(targets, f.s.Leader)
	var lastErr error
	for _, t := range targets {
		res, err := f.t.Invoke(ctx, t, KVServiceName, op, req)
		if err == nil {
			return res, nil
		}
		lastErr = err
		// Epoch rejections and data errors are authoritative — only
		// reachability failures fall through to the next target.
		if IsEpochChanged(err) || strings.Contains(err.Error(), sbdms.ErrKeyNotFound.Error()) {
			return nil, err
		}
	}
	return nil, lastErr
}

// PutBatch writes a batch. Keys are grouped by owning shard under ONE
// map epoch; every per-shard sub-batch carries that epoch and any
// rejection triggers a refresh and a FULL retry of the whole batch
// (puts are idempotent upserts, so shards that already applied their
// sub-batch simply converge).
func (r *Router) PutBatch(ctx context.Context, keys []string, vals [][]byte) error {
	return r.groupedWrite(ctx, "putBatch", keys, vals)
}

// Import bulk-loads a batch, grouped by shard like PutBatch.
func (r *Router) Import(ctx context.Context, keys []string, vals [][]byte) error {
	return r.groupedWrite(ctx, "import", keys, vals)
}

func (r *Router) groupedWrite(ctx context.Context, op string, keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return sbdms.ErrBatchMismatch
	}
	return r.withReplan(ctx, func(m *Map) error {
		groups := make(map[int]*BatchReq)
		for i, k := range keys {
			sid := m.ShardFor(k)
			g := groups[sid]
			if g == nil {
				g = &BatchReq{Epoch: m.Epoch}
				groups[sid] = g
			}
			g.Keys = append(g.Keys, k)
			g.Vals = append(g.Vals, vals[i])
		}
		// Deterministic shard order keeps failures reproducible.
		sids := make([]int, 0, len(groups))
		for sid := range groups {
			sids = append(sids, sid)
		}
		sort.Ints(sids)
		for _, sid := range sids {
			if _, err := r.kv(m.Shards[sid].Leader).Invoke(ctx, op, *groups[sid]); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanKeys merges each shard's ordered scan into one global in-order
// prefix of up to n keys starting at from.
func (r *Router) ScanKeys(ctx context.Context, from string, n int) ([]string, error) {
	var out []string
	err := r.withReplan(ctx, func(m *Map) error {
		per := make([][]string, 0, len(m.Shards))
		for _, s := range m.Shards {
			keys, err := core.Call[[]string](ctx, r.kv(s.Leader), "scan",
				ScanReq{Epoch: m.Epoch, From: from, N: n})
			if err != nil {
				return err
			}
			per = append(per, keys)
		}
		out = mergeSorted(per, n)
		return nil
	})
	return out, err
}

// ScanKeysSnapshot merges per-shard snapshot scans (served at each
// shard's replicated frontier, follower-first).
func (r *Router) ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error) {
	var out []string
	err := r.withReplan(ctx, func(m *Map) error {
		per := make([][]string, 0, len(m.Shards))
		for _, s := range m.Shards {
			keys, err := core.Call[[]string](ctx, followerFirst{r.transport, s}, "scanSnapshot",
				ScanReq{Epoch: m.Epoch, From: from, N: n})
			if err != nil {
				return err
			}
			per = append(per, keys)
		}
		out = mergeSorted(per, n)
		return nil
	})
	return out, err
}

// Len sums live key counts across shards.
func (r *Router) Len(ctx context.Context) (uint64, error) {
	var total uint64
	err := r.withReplan(ctx, func(m *Map) error {
		total = 0
		for _, s := range m.Shards {
			n, err := core.Call[uint64](ctx, r.kv(s.Leader), "len", LenReq{Epoch: m.Epoch})
			if err != nil {
				return err
			}
			total += n
		}
		return nil
	})
	return total, err
}

// mapNotFound converts a (possibly string-flattened) key-not-found
// error back into the engine's typed sentinel.
func mapNotFound(err error) error {
	if err != nil && strings.Contains(err.Error(), sbdms.ErrKeyNotFound.Error()) {
		return sbdms.ErrKeyNotFound
	}
	return err
}

// mergeSorted merges already-sorted per-shard key lists into the first
// n keys of their union (hash partitioning makes the lists disjoint).
func mergeSorted(per [][]string, n int) []string {
	var all []string
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Strings(all)
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}
