package sbdms

import (
	"context"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Interface names of the SBDMS layers (Figure 2). Multiple providers
// may register under each name; selection and adaptation operate on
// these.
const (
	IfaceDisk   = "sbdms.storage.Disk"
	IfaceRecord = "sbdms.access.Record"
	IfaceKV     = "sbdms.access.KV"
	IfaceQuery  = "sbdms.data.Query"
)

// Wire types of the storage service. Exported so bindings can move
// them between processes.
type (
	// PageReadRequest asks for the content of a page.
	PageReadRequest struct{ Page storage.PageID }
	// PageWriteRequest carries a full page image.
	PageWriteRequest struct {
		Page storage.PageID
		Data []byte
	}
	// KVPutRequest stores a key/value pair.
	KVPutRequest struct {
		Key string
		Val []byte
	}
	// KVBatchRequest stores several key/value pairs atomically.
	KVBatchRequest struct {
		Keys []string
		Vals [][]byte
	}
	// KVImportRequest bulk-loads key/value pairs through the sorted
	// bottom-up build fast path (per-key fallback on a non-empty store).
	KVImportRequest struct {
		Keys []string
		Vals [][]byte
	}
	// KVScanRequest asks for up to N keys from Key onward.
	KVScanRequest struct {
		Key string
		N   int
	}
	// RecordPutRequest stores an encoded record.
	RecordPutRequest struct{ Rec []byte }
)

func init() {
	gob.Register(PageReadRequest{})
	gob.Register(PageWriteRequest{})
	gob.Register(KVPutRequest{})
	gob.Register(KVBatchRequest{})
	gob.Register(KVImportRequest{})
	gob.Register(KVScanRequest{})
	gob.Register(RecordPutRequest{})
	gob.Register(storage.PageID(0))
	gob.Register(uint64(0))
}

// --- Disk service: byte/page-level Storage Service --------------------

// DiskContract describes the disk storage service interface.
func DiskContract() *core.Contract {
	return &core.Contract{
		Interface: IfaceDisk,
		Operations: []core.OpSpec{
			{Name: "allocate", In: "nil", Out: "storage.PageID", Semantic: "storage.allocate"},
			{Name: "deallocate", In: "storage.PageID", Out: "bool", Semantic: "storage.deallocate"},
			{Name: "readPage", In: "sbdms.PageReadRequest", Out: "[]byte", Semantic: "storage.readPage"},
			{Name: "writePage", In: "sbdms.PageWriteRequest", Out: "bool", Semantic: "storage.writePage"},
			{Name: "numPages", In: "nil", Out: "uint64", Semantic: "storage.numPages"},
			{Name: "sync", In: "nil", Out: "bool", Semantic: "storage.sync"},
		},
		Description: core.Description{Summary: "page-granular non-volatile storage"},
		Quality:     core.Quality{LatencyClass: "disk", Availability: 0.999, CostFactor: 1},
	}
}

// NewDiskService exposes a storage.PageStore as a Disk storage service.
func NewDiskService(name string, store storage.PageStore) *core.BaseService {
	s := core.NewService(name, DiskContract())
	core.Handle(s, "allocate", func(ctx context.Context, _ struct{}) (storage.PageID, error) {
		return store.Allocate()
	})
	core.Handle(s, "deallocate", func(ctx context.Context, id storage.PageID) (bool, error) {
		return true, store.Deallocate(id)
	})
	core.Handle(s, "readPage", func(ctx context.Context, r PageReadRequest) ([]byte, error) {
		buf := make([]byte, storage.PageSize)
		if err := store.ReadPage(r.Page, buf); err != nil {
			return nil, err
		}
		return buf, nil
	})
	core.Handle(s, "writePage", func(ctx context.Context, r PageWriteRequest) (bool, error) {
		return true, store.WritePage(r.Page, r.Data)
	})
	core.Handle(s, "numPages", func(ctx context.Context, _ struct{}) (uint64, error) {
		return store.NumPages(), nil
	})
	core.Handle(s, "sync", func(ctx context.Context, _ struct{}) (bool, error) {
		return true, store.Sync()
	})
	return core.WithPing(s)
}

// PageStoreClient adapts any Invoker providing the Disk interface back
// into a storage.PageStore, so buffer managers and file managers can be
// stacked over a *service* instead of a local disk — the composition
// mechanism behind the layered and fine granularity profiles.
type PageStoreClient struct {
	inv core.Invoker
}

// NewPageStoreClient wraps an invoker (usually a late-bound *core.Ref
// to IfaceDisk).
func NewPageStoreClient(inv core.Invoker) *PageStoreClient {
	return &PageStoreClient{inv: inv}
}

var bg = context.Background()

// Allocate implements storage.PageStore.
func (c *PageStoreClient) Allocate() (storage.PageID, error) {
	return core.Call[storage.PageID](bg, c.inv, "allocate", nil)
}

// Deallocate implements storage.PageStore.
func (c *PageStoreClient) Deallocate(id storage.PageID) error {
	_, err := c.inv.Invoke(bg, "deallocate", id)
	return err
}

// ReadPage implements storage.PageStore.
func (c *PageStoreClient) ReadPage(id storage.PageID, buf []byte) error {
	b, err := core.Call[[]byte](bg, c.inv, "readPage", PageReadRequest{Page: id})
	if err != nil {
		return err
	}
	if len(b) != storage.PageSize {
		return fmt.Errorf("sbdms: readPage returned %d bytes, want %d", len(b), storage.PageSize)
	}
	copy(buf, b)
	return nil
}

// WritePage implements storage.PageStore.
func (c *PageStoreClient) WritePage(id storage.PageID, data []byte) error {
	_, err := c.inv.Invoke(bg, "writePage", PageWriteRequest{Page: id, Data: data})
	return err
}

// NumPages implements storage.PageStore.
func (c *PageStoreClient) NumPages() uint64 {
	n, _ := core.Call[uint64](bg, c.inv, "numPages", nil)
	return n
}

// Sync implements storage.PageStore.
func (c *PageStoreClient) Sync() error {
	_, err := c.inv.Invoke(bg, "sync", nil)
	return err
}

// --- KV service: Access Service over records and index ----------------

// kvOp is one row of the KV op table: its contract entry, and bind,
// which registers the op's typed handler on a service over a backend.
type kvOp struct {
	spec core.OpSpec
	bind func(s *core.BaseService, op string, b kvBackend)
}

// kvOps is the KV op table, the one definition of each KV operation.
// KVContract, RecordContract and EnvelopedKVContract take their
// operations from it, and NewKVService and NewRecordService their
// handlers. Adding an operation means a row here, the backend method
// and a one-line KVClient method.
var kvOps = []kvOp{
	{core.OpSpec{Name: "get", In: "string", Out: "[]byte", Semantic: "kv.get"},
		func(s *core.BaseService, op string, b kvBackend) { core.Handle(s, op, b.Get) }},
	{core.OpSpec{Name: "put", In: "sbdms.KVPutRequest", Out: "bool", Semantic: "kv.put"},
		func(s *core.BaseService, op string, b kvBackend) {
			core.Handle(s, op, func(ctx context.Context, r KVPutRequest) (bool, error) {
				return true, b.Put(ctx, r.Key, r.Val)
			})
		}},
	{core.OpSpec{Name: "putBatch", In: "sbdms.KVBatchRequest", Out: "bool", Semantic: "kv.putBatch"},
		func(s *core.BaseService, op string, b kvBackend) {
			core.Handle(s, op, func(ctx context.Context, r KVBatchRequest) (bool, error) {
				return true, b.PutBatch(ctx, r.Keys, r.Vals)
			})
		}},
	// Import is the bulk-ingest path: the batch is sorted and loaded as
	// one transaction at one commit timestamp, through the bottom-up
	// tree build when the store is empty.
	{core.OpSpec{Name: "import", In: "sbdms.KVImportRequest", Out: "bool", Semantic: "kv.import"},
		func(s *core.BaseService, op string, b kvBackend) {
			core.Handle(s, op, func(ctx context.Context, r KVImportRequest) (bool, error) {
				return true, b.Import(ctx, r.Keys, r.Vals)
			})
		}},
	{core.OpSpec{Name: "delete", In: "string", Out: "bool", Semantic: "kv.delete"},
		func(s *core.BaseService, op string, b kvBackend) {
			core.Handle(s, op, func(ctx context.Context, k string) (bool, error) {
				return true, b.Delete(ctx, k)
			})
		}},
	// Scan honours the engine's configured ScanIsolation: at
	// serializable the result is an atomic (phantom-free) snapshot; at
	// read-committed it is a best-effort view.
	{core.OpSpec{Name: "scan", In: "sbdms.KVScanRequest", Out: "[]string", Semantic: "kv.scan"},
		func(s *core.BaseService, op string, b kvBackend) {
			core.Handle(s, op, func(ctx context.Context, r KVScanRequest) ([]string, error) {
				return b.Scan(ctx, r.Key, r.N)
			})
		}},
	// The snapshot variants read one consistent MVCC cut without taking
	// key locks, at any configured ScanIsolation.
	{core.OpSpec{Name: "getSnapshot", In: "string", Out: "[]byte", Semantic: "kv.getSnapshot"},
		func(s *core.BaseService, op string, b kvBackend) { core.Handle(s, op, b.GetSnapshot) }},
	{core.OpSpec{Name: "scanSnapshot", In: "sbdms.KVScanRequest", Out: "[]string", Semantic: "kv.scanSnapshot"},
		func(s *core.BaseService, op string, b kvBackend) {
			core.Handle(s, op, func(ctx context.Context, r KVScanRequest) ([]string, error) {
				return b.ScanKeysSnapshot(ctx, r.Key, r.N)
			})
		}},
	{core.OpSpec{Name: "len", In: "nil", Out: "uint64", Semantic: "kv.len"},
		func(s *core.BaseService, op string, b kvBackend) {
			core.Handle(s, op, func(ctx context.Context, _ struct{}) (uint64, error) { return b.Len(), nil })
		}},
}

// kvSpecs returns the op table's contract entries. A non-nil envelope
// renames each request type to the type that wraps it.
func kvSpecs(envelope map[string]string) []core.OpSpec {
	ops := make([]core.OpSpec, len(kvOps))
	for i, op := range kvOps {
		ops[i] = op.spec
		if envelope == nil {
			continue
		}
		in, ok := envelope[op.spec.In]
		if !ok {
			panic(fmt.Sprintf("sbdms: no envelope for %s, the request of KV operation %q", op.spec.In, op.spec.Name))
		}
		ops[i].In = in
	}
	return ops
}

// KVContract describes the key-value access service interface.
func KVContract() *core.Contract {
	return &core.Contract{
		Interface:   IfaceKV,
		Operations:  kvSpecs(nil),
		Description: core.Description{Summary: "record-level key-value access over heap and B+tree"},
		Quality:     core.Quality{LatencyClass: "disk", Availability: 0.999, CostFactor: 1},
	}
}

// RecordContract is the record-level access interface (the middle hop
// of the layered and fine profiles). It is operationally identical to
// the KV contract but registered under its own interface name so that
// the two layers are distinct architectural services.
func RecordContract() *core.Contract {
	c := KVContract()
	c.Interface = IfaceRecord
	c.Description.Summary = "record manager over heap file and index"
	return c
}

// EnvelopedKVContract derives a contract from the KV op table for a
// service whose requests wrap the KV ones: envelope maps each KV request
// type to the contract name of its wrapper (e.g. one adding a shard-map
// epoch). Operation names, replies and semantic tags stay the KV ones,
// so GenerateAdaptor bridges IfaceKV callers onto the service given one
// transform per KV request type. It panics when a KV request type has
// no envelope.
func EnvelopedKVContract(iface, summary string, envelope map[string]string) *core.Contract {
	return &core.Contract{
		Interface:   iface,
		Operations:  kvSpecs(envelope),
		Description: core.Description{Summary: summary},
	}
}

// kvBackend is what a KV service delegates to: the native core or a
// further service hop (layered/fine profiles). Every operation takes a
// context: lock waits inside the engine (per-key 2PL, and at
// serializable isolation the next-key locks scans and writers take)
// observe its cancellation, so a caller can bound how long it is
// willing to block behind a conflicting transaction.
type kvBackend interface {
	Put(ctx context.Context, k string, v []byte) error
	PutBatch(ctx context.Context, keys []string, vals [][]byte) error
	Import(ctx context.Context, keys []string, vals [][]byte) error
	Get(ctx context.Context, k string) ([]byte, error)
	Delete(ctx context.Context, k string) error
	Scan(ctx context.Context, from string, n int) ([]string, error)
	GetSnapshot(ctx context.Context, k string) ([]byte, error)
	ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error)
	Len() uint64
}

// newKVService registers every op of the table on a service with
// contract c, delegating to backend.
func newKVService(name string, c *core.Contract, backend kvBackend) *core.BaseService {
	s := core.NewService(name, c)
	for _, op := range kvOps {
		op.bind(s, op.spec.Name, backend)
	}
	return core.WithPing(s)
}

// NewKVService exposes a KV backend as an Access service.
func NewKVService(name string, backend kvBackend) *core.BaseService {
	return newKVService(name, KVContract(), backend)
}

// NewRecordService exposes a KV backend (the native core) under the
// Record interface.
func NewRecordService(name string, backend kvBackend) *core.BaseService {
	return newKVService(name, RecordContract(), backend)
}

// KVClient adapts an Invoker providing the KV interface back into a
// kvBackend, enabling service-over-service stacking.
type KVClient struct{ inv core.Invoker }

// NewKVClient wraps an invoker (usually a *core.Ref to IfaceKV or
// IfaceRecord).
func NewKVClient(inv core.Invoker) *KVClient { return &KVClient{inv: inv} }

// Put implements kvBackend.
func (c *KVClient) Put(ctx context.Context, k string, v []byte) error {
	_, err := c.inv.Invoke(ctx, "put", KVPutRequest{Key: k, Val: v})
	return err
}

// PutBatch implements kvBackend.
func (c *KVClient) PutBatch(ctx context.Context, keys []string, vals [][]byte) error {
	_, err := c.inv.Invoke(ctx, "putBatch", KVBatchRequest{Keys: keys, Vals: vals})
	return err
}

// Import implements kvBackend.
func (c *KVClient) Import(ctx context.Context, keys []string, vals [][]byte) error {
	_, err := c.inv.Invoke(ctx, "import", KVImportRequest{Keys: keys, Vals: vals})
	return err
}

// Get implements kvBackend.
func (c *KVClient) Get(ctx context.Context, k string) ([]byte, error) {
	return core.Call[[]byte](ctx, c.inv, "get", k)
}

// Delete implements kvBackend.
func (c *KVClient) Delete(ctx context.Context, k string) error {
	_, err := c.inv.Invoke(ctx, "delete", k)
	return err
}

// Scan implements kvBackend.
func (c *KVClient) Scan(ctx context.Context, from string, n int) ([]string, error) {
	return core.Call[[]string](ctx, c.inv, "scan", KVScanRequest{Key: from, N: n})
}

// GetSnapshot implements kvBackend.
func (c *KVClient) GetSnapshot(ctx context.Context, k string) ([]byte, error) {
	return core.Call[[]byte](ctx, c.inv, "getSnapshot", k)
}

// ScanKeysSnapshot implements kvBackend.
func (c *KVClient) ScanKeysSnapshot(ctx context.Context, from string, n int) ([]string, error) {
	return core.Call[[]string](ctx, c.inv, "scanSnapshot", KVScanRequest{Key: from, N: n})
}

// Len implements kvBackend.
func (c *KVClient) Len() uint64 {
	n, _ := core.Call[uint64](bg, c.inv, "len", nil)
	return n
}

// --- Query service: Data Service --------------------------------------

// QueryContract describes the SQL Data Service interface.
func QueryContract() *core.Contract {
	return &core.Contract{
		Interface: IfaceQuery,
		Operations: []core.OpSpec{
			{Name: "execute", In: "string", Out: "sql.Result", Semantic: "query.execute"},
		},
		Description: core.Description{Summary: "SQL query and DML execution over logical tables and views"},
		Quality:     core.Quality{LatencyClass: "disk", Availability: 0.999, CostFactor: 1},
	}
}

// NewQueryService exposes a SQL engine as the Data Service.
func NewQueryService(name string, engine *sql.Engine) *core.BaseService {
	s := core.NewService(name, QueryContract())
	core.Handle(s, "execute", engine.Execute)
	return core.WithPing(s)
}
