package repro

import (
	"expvar"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/workpool"
)

// DB is the long-lived root of the query façade: it owns a probability
// space, the relations registered over it, the pool of hash-consing
// clause interners the lineage pipelines draw from, and a private
// worker pool that batch conf() fans out on.
//
// A DB is safe for concurrent use. Short-lived state — the fragment
// cache, the default budget and evaluator — lives one level down, in
// Sessions:
//
//	db := repro.NewDB(space, relations...)
//	sess := db.Session(repro.WithEps(1e-3))
//	for a, err := range sess.Query("R").GroupLineage(0).TopK(10).Run(ctx) { ... }
type DB struct {
	space   *formula.Space
	mu      sync.RWMutex
	rels    map[string]*pdb.Relation
	names   []string
	pool    *workpool.Pool
	metrics *obs.Metrics

	inmu sync.Mutex
	ins  []*formula.Interner
}

// maxPooledClauses bounds the clauses a returned interner may hold and
// still be pooled for reuse; larger ones are dropped so one huge query
// does not pin its working set for the DB's lifetime.
const maxPooledClauses = 1 << 18

// NewDB returns a database over the given probability space with the
// given relations registered. It panics on a nil space or on the
// registration errors Register documents — a malformed catalog is a
// programming error, like an unknown column name.
func NewDB(space *formula.Space, rels ...*pdb.Relation) *DB {
	if space == nil {
		panic("repro: NewDB requires a non-nil probability space")
	}
	db := &DB{
		space:   space,
		rels:    make(map[string]*pdb.Relation, len(rels)),
		pool:    workpool.New(runtime.GOMAXPROCS(0)),
		metrics: obs.NewMetrics(),
	}
	db.pool.SetMetrics(db.metrics)
	db.Register(rels...)
	return db
}

// Snapshot freezes the DB's engine-wide metrics registry — route
// counts, lineage volumes, refinement steps, cache traffic, pool
// saturation, per-query latency histograms, recorded into by every
// session and query of the DB — into the flat, JSON-marshalable export
// shape the serving layer scrapes and PublishExpvar publishes.
// Snapshot.Sub of an earlier snapshot is the traffic recorded in
// between.
func (db *DB) Snapshot() obs.Snapshot { return db.metrics.Snapshot() }

// expvarSlots holds one indirection per expvar name ever published by
// PublishExpvar: the expvar registry itself cannot unpublish or
// re-publish a name (expvar.Publish panics on duplicates), so each name
// is published exactly once with a closure reading the slot, and
// re-publishing just rebinds the slot to the caller's registry.
var (
	expvarMu    sync.Mutex
	expvarSlots = make(map[string]*atomic.Pointer[obs.Metrics])
)

// PublishExpvar publishes the DB's metrics snapshot on the process's
// expvar surface (GET /debug/vars) under the given name. It is
// idempotent: re-publishing a name — a service handler re-creating its
// DB after a restart, or two DBs taking turns — rebinds the name to
// this DB instead of panicking the way a raw expvar.Publish would.
func (db *DB) PublishExpvar(name string) {
	expvarMu.Lock()
	slot, ok := expvarSlots[name]
	if !ok {
		slot = new(atomic.Pointer[obs.Metrics])
		expvarSlots[name] = slot
		expvar.Publish(name, expvar.Func(func() any { return slot.Load().Snapshot() }))
	}
	expvarMu.Unlock()
	slot.Store(db.metrics)
}

// Register adds relations to the catalog. It panics on a nil relation,
// an empty name, or a name already registered to a different relation
// (re-registering the identical relation is a no-op).
func (db *DB) Register(rels ...*pdb.Relation) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, r := range rels {
		if r == nil {
			panic("repro: Register: nil relation")
		}
		if r.Name == "" {
			panic("repro: Register: relation with empty name")
		}
		if have, ok := db.rels[r.Name]; ok {
			if have == r {
				continue
			}
			panic(fmt.Sprintf("repro: Register: relation %q already registered", r.Name))
		}
		db.rels[r.Name] = r
		db.names = append(db.names, r.Name)
	}
}

// Space returns the probability space every registered relation's
// lineage is defined over.
func (db *DB) Space() *Space { return db.space }

// Relation returns the registered relation with the given name.
func (db *DB) Relation(name string) (*pdb.Relation, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rels[name]
	return r, ok
}

// Relations lists the registered relation names in registration order.
func (db *DB) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.names...)
}

// known reports whether a query may scan r: either r itself is
// registered, or a relation with r's name is — derived views
// (filtered/thinned copies keeping the base relation's name, the way
// the TPC-H IQ workloads thin their inputs) count as known.
func (db *DB) known(r *pdb.Relation) bool {
	if r == nil {
		return false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.rels[r.Name]
	return ok
}

// Pool returns the DB's private worker pool — the one its sessions'
// batch conf() fan-outs run on. Each DB owns its own
// pool (sized to GOMAXPROCS at creation), so resizing one DB never
// affects another.
func (db *DB) Pool() *workpool.Pool { return db.pool }

// Parallelism returns the DB's worker pool parallelism.
func (db *DB) Parallelism() int { return db.pool.Parallelism() }

// interner hands out a clause interner for one query pipeline, reusing
// a pooled one when available. Interners are not concurrency-safe, so
// each pipeline borrows exclusively and returns it via release.
func (db *DB) interner() *formula.Interner {
	db.inmu.Lock()
	defer db.inmu.Unlock()
	if n := len(db.ins); n > 0 {
		in := db.ins[n-1]
		db.ins = db.ins[:n-1]
		return in
	}
	return formula.NewInterner()
}

// release returns a borrowed interner to the pool. Interners that grew
// past maxPooledClauses are dropped instead, bounding the memory the
// pool can pin.
func (db *DB) release(in *formula.Interner) {
	if in == nil {
		return
	}
	if in.CacheStats().Entries > maxPooledClauses {
		return
	}
	db.inmu.Lock()
	defer db.inmu.Unlock()
	db.ins = append(db.ins, in)
}
