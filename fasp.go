// Package fasp is the public API of the failure-atomic slotted paging
// library — a Go reproduction of "Failure-Atomic Slotted Paging for
// Persistent Memory" (ASPLOS 2017).
//
// It bundles a simulated persistent-memory machine (internal/pmem), the
// paper's FAST and FAST+ commit schemes plus the NVWAL / WAL / rollback
// journal baselines, a slotted-page B-tree, and a small SQLite-like SQL
// engine, behind two entry points:
//
//   - Open — a SQL database (Exec/Query) on a chosen scheme;
//   - OpenKV — a raw ordered key/value store over the same B-tree.
//
// Both run on a deterministic simulated clock: configure PM latencies,
// run a workload, and read simulated-time phase breakdowns that reproduce
// the paper's figures. Crash / Reopen simulate power failure and recovery.
package fasp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fasp/internal/btree"
	"fasp/internal/engine"
	"fasp/internal/obsv"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
	"fasp/internal/shard"
	"fasp/internal/sql"
)

// Scheme names accepted by Options.Scheme.
const (
	SchemeFASTPlus = "fast+"
	SchemeFAST     = "fast"
	SchemeNVWAL    = "nvwal"
	SchemeWAL      = "wal"
	SchemeJournal  = "journal"
)

// ErrBadScheme reports an Options.Scheme naming no commit scheme. Open and
// OpenKV return it (wrapped — test with errors.Is) instead of constructing
// a store; names are case-insensitive.
var ErrBadScheme = scheme.ErrUnknown

// Options configures a database or KV store.
type Options struct {
	// Scheme selects the commit scheme (default "fast+").
	Scheme string
	// PageSize is the slotted-page size in bytes (default 4096).
	PageSize int
	// MaxPages bounds the page space (default 16384). In sharded mode the
	// bound applies to each shard's independent page space.
	MaxPages int
	// PMReadNS / PMWriteNS are the emulated PM latencies per cache line
	// (default 300/300, the paper's default point; DRAM is 120). 0 selects
	// the default; pass -1 for an explicitly zero-latency (DRAM-instant)
	// medium, which 0 cannot express.
	PMReadNS, PMWriteNS int64
	// CacheBytes bounds the emulated CPU cache per arena (default 2 MiB).
	CacheBytes int64
	// Shards hash-partitions the KV key space across this many independent
	// stores, each on its own simulated machine with a single-writer
	// goroutine and group commit (see OpenKV). 0 means 1: the same engine
	// with one partition. Open ignores the field.
	Shards int
	// MaxBatch is the group-commit drain bound: how many operations one
	// group commit may take from a shard's mailbox (default 64), and the
	// chunk size KV.ApplyBatch commits at.
	MaxBatch int
	// EnqueueTimeout bounds how long a submission waits for mailbox space
	// before failing with ErrShardBusy (default 2s).
	EnqueueTimeout time.Duration
	// DisableMetrics turns the observability recorder off entirely (KV
	// only). Metrics are on by default; the instrumented hot path is
	// allocation-free either way, so disabling only saves a few atomic
	// adds per operation.
	DisableMetrics bool
	// DefragThreshold > 0 enables proactive copy-on-write defragmentation:
	// every 32nd write round a shard applies without a fault — a writer's
	// drained round, a one-shard Put/Insert/Delete, or the shard's slice of
	// one ApplyBatch — measures its committed leaves' dead-byte ratio, and
	// leaves at or above the threshold are rewritten: a first few at once,
	// the rest in idle group-commit slots (after a writer's drain, or a
	// one-shard Put/Insert/Delete, leaves the mailbox empty). ApplyBatch
	// schedules no idle slot. Sensible values are 0.2–0.5.
	DefragThreshold float64
	// FaultHook, when set, runs at the top of every group commit with the
	// shard index, inside the contained writer section — the
	// fault-injection harness's entry point (see internal/faultx): a panic
	// degrades that one shard until Heal, a sleep stalls its batch while
	// the others keep serving. Production leaves it nil.
	FaultHook func(shard int)
}

// fill applies defaults and normalises Scheme to its canonical lower-case
// form, the name a snapshot records. It is idempotent:
// the -1 latency sentinel survives so that re-filling (each shard's
// backend fills the same Options) cannot turn an explicit zero back into
// the 300 ns default; newDB clamps the sentinel when building the model.
func (o *Options) fill() {
	if o.Scheme == "" {
		o.Scheme = SchemeFASTPlus
	}
	o.Scheme = strings.ToLower(o.Scheme)
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.MaxPages == 0 {
		o.MaxPages = 16384
	}
	if o.PMReadNS == 0 {
		o.PMReadNS = 300
	}
	if o.PMWriteNS == 0 {
		o.PMWriteNS = 300
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = shard.DefaultMaxBatch
	}
}

// latNS resolves a latency field: -1 is the explicit-zero sentinel.
func latNS(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// Value is a SQL value in query results.
type Value = sql.Value

// Result is the outcome of one SQL statement.
type Result = engine.Result

// CrashOptions re-exports the crash eviction lottery configuration.
type CrashOptions = pmem.CrashOptions

// DB is a SQL database on a simulated PM machine. The mutex serialises all
// public operations: the simulated machine (clock, cache overlay) and the
// single-writer stores are not internally synchronised, so the facade
// provides SQLite-style one-at-a-time access that is safe to call from
// multiple goroutines.
type DB struct {
	mu     sync.Mutex
	opts   Options
	scheme scheme.Scheme
	sys    *pmem.System
	store  pager.Store
	arena  *pmem.Arena
	eng    *engine.DB
}

// newDB builds a simulated machine and a fresh store of opts' scheme on it:
// a DB before its SQL engine is attached, and each KV shard's backend.
func newDB(opts Options) (*DB, error) {
	opts.fill()
	s, err := scheme.Parse(opts.Scheme)
	if err != nil {
		return nil, err
	}
	lat := pmem.DefaultLatencies(latNS(opts.PMReadNS), latNS(opts.PMWriteNS))
	lat.CacheBytes = opts.CacheBytes
	sys := pmem.NewSystem(lat)
	st := s.Create(sys, opts.geometry())
	return &DB{opts: opts, scheme: s, sys: sys, store: st, arena: st.Arena()}, nil
}

// geometry sizes the store; the log sizes keep each scheme's default.
func (o Options) geometry() scheme.Geometry {
	return scheme.Geometry{PageSize: o.PageSize, MaxPages: o.MaxPages}
}

// Open creates a fresh database with the given options.
func Open(opts Options) (*DB, error) {
	db, err := newDB(opts)
	if err != nil {
		return nil, err
	}
	db.eng = engine.Open(db.store)
	return db, nil
}

// reattach rebuilds the store over the surviving arena after a crash or a
// snapshot restore, runs the scheme's recovery, and reopens the SQL engine
// on the recovered store.
func (db *DB) reattach() error {
	ns, err := db.scheme.Reattach(db.arena, db.opts.geometry())
	if err != nil {
		return err
	}
	db.store = ns
	db.eng = engine.Open(ns)
	return nil
}

// System exposes the simulated machine (clock, latencies, crash control).
func (db *DB) System() *pmem.System { return db.sys }

// SchemeName reports the active commit scheme.
func (db *DB) SchemeName() string { return db.store.Name() }

// SimulatedNS returns the current simulated time in nanoseconds.
func (db *DB) SimulatedNS() int64 { return db.sys.Clock().Now() }

// RawStore exposes the underlying pager store for inspection tooling
// (cmd/faspinspect); application code should not need it.
func (db *DB) RawStore() pager.Store { return db.store }

// PMStats returns the persistent-memory arena's architectural event
// counters (line fills, stores, clflush calls, write-backs).
func (db *DB) PMStats() pmem.Stats { return db.arena.Stats() }

// Crash simulates a power failure: volatile state is lost; each dirty PM
// cache line independently survives per the eviction lottery. Call Reopen
// afterwards to run recovery.
func (db *DB) Crash(opts CrashOptions) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sys.Crash(opts)
}

// Exec parses and executes a semicolon-separated SQL batch.
func (db *DB) Exec(src string) ([]Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.Exec(src)
}

// MustExec runs Exec and panics on error (examples and tests).
func (db *DB) MustExec(src string) []Result {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.MustExec(src)
}

// Query runs one SELECT and returns its rows.
func (db *DB) Query(src string) ([][]Value, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.QueryRows(src)
}

// Tables lists the table names in the catalog.
func (db *DB) Tables() ([]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.Tables()
}

// Schema returns a table's stored CREATE TABLE statement.
func (db *DB) Schema(table string) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.eng.Schema(table)
}

// Reopen recovers the database after Crash, reattaching engine state.
func (db *DB) Reopen() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.reattach()
}

// KV is an ordered key/value store over the failure-atomic B-tree —
// the paper's pager/B-tree layer without the SQL front end (the layer
// Figures 6–10 measure).
//
// Every KV is one shard.Engine: keys are hash-partitioned across
// Options.Shards independent stores (one by default), each on its own
// simulated machine and owned by a single-writer goroutine that drains a
// bounded mailbox and group-commits each drained batch as one transaction
// (internal/shard). With several shards, concurrent callers run in
// parallel across shards and are batched within one. With one shard a
// synchronous write (Put/Insert/Delete) commits on the caller's goroutine
// under the shard lock — bit-identical in simulated time to driving the
// B-tree directly — while Enqueue/Wait still gathers concurrent submitters
// into group commits. Every KV holds goroutines: call Close
// when done.
type KV struct {
	eng  *shard.Engine
	opts Options

	// rec is the observability recorder (nil with DisableMetrics); regName
	// is the store's name in the exporter registry; closed makes Close
	// idempotent.
	rec     *obsv.Recorder
	regName string
	closed  atomic.Bool
}

// Op and OpKind re-export the engine's operation type, used by ApplyBatch;
// Request is its reusable submission handle for Enqueue/Wait (the zero
// value is ready to use).
type (
	Op      = shard.Op
	OpKind  = shard.OpKind
	Request = shard.Request
)

// Operation kinds for ApplyBatch.
const (
	OpPut    = shard.OpPut
	OpInsert = shard.OpInsert
	OpUpdate = shard.OpUpdate
	OpDelete = shard.OpDelete
)

// ErrShardCrashed reports an operation submitted to a crashed shard that
// has not been recovered yet (call ReopenKV).
var ErrShardCrashed = shard.ErrCrashed

// ErrShardDown reports an operation submitted to a shard whose writer hit
// a contained fault (store panic / hard PM error); the other shards keep
// serving. Call Heal on the degraded shard to re-run recovery.
var ErrShardDown = shard.ErrShardDown

// ErrShardBusy reports a submission that timed out waiting for mailbox
// space (wedged or badly oversubscribed shard); the operation was not
// applied.
var ErrShardBusy = shard.ErrBusy

// errCrossShard reports KV.Batch on a store with several shards.
var errCrossShard = errors.New("fasp: cross-shard transactions are not supported on a sharded store; use ApplyBatch for per-shard group commits")

// OpenKV creates a fresh key/value store of opts.Shards shards.
func OpenKV(opts Options) (*KV, error) {
	opts.fill()
	rec := newRecorder(opts)
	eng, err := newShardEngine(opts, rec)
	if err != nil {
		return nil, err
	}
	kv := &KV{eng: eng, opts: opts, rec: rec}
	registerKV(kv)
	return kv, nil
}

// newShardEngine wires the scheme-agnostic engine to this package's store
// constructor: every shard is a newDB backend on its own simulated
// machine, and reattach after a crash goes through the scheme table. A shard
// runs Options.Scheme for the life of the store.
func newShardEngine(opts Options, rec *obsv.Recorder) (*shard.Engine, error) {
	s, err := scheme.Parse(opts.Scheme)
	if err != nil {
		return nil, err
	}
	return shard.New(shard.Config{
		Shards:         opts.Shards,
		MaxBatch:       opts.MaxBatch,
		EnqueueTimeout: opts.EnqueueTimeout,
		Open: func(int) (*shard.Backend, error) {
			db, err := newDB(opts)
			if err != nil {
				return nil, err
			}
			return &shard.Backend{Sys: db.sys, Arena: db.arena, Store: db.store}, nil
		},
		Reattach: func(_ int, be *shard.Backend) (pager.Store, error) {
			return s.Reattach(be.Arena, opts.geometry())
		},
		Recorder: rec,
		Counters: func(_ int, be *shard.Backend) obsv.Counters {
			return storeCounters(be.Sys, be.Arena, be.Store)
		},
		DefragThreshold: opts.DefragThreshold,
		FaultHook:       opts.FaultHook,
	})
}

// Close stops the store's writer goroutines after serving every queued
// operation and unregisters the store from the metrics exporter. It is
// idempotent — safe to call twice, concurrently, and after a crashed or
// degraded shard. Write operations submitted after Close fail with
// ErrClosed; reads keep working, as they never needed a writer.
func (kv *KV) Close() {
	if kv.closed.Swap(true) {
		return
	}
	unregisterKV(kv)
	kv.eng.Close()
}

// Sharded reports whether the store is hash-partitioned across several
// shards.
func (kv *KV) Sharded() bool { return kv.eng.Shards() > 1 }

// Shards returns the shard count.
func (kv *KV) Shards() int { return kv.eng.Shards() }

// MaxBatch returns the group-commit drain bound the writer goroutines and
// ApplyBatch chunk at.
func (kv *KV) MaxBatch() int { return kv.eng.MaxBatch() }

// ShardOf returns the shard index key routes to: the engine's FNV-1a
// placement. It is deterministic and stable for the life of the store (the
// hash is part of the on-disk contract), so callers may pre-partition work
// by shard — the server's connections do exactly that before Enqueue.
func (kv *KV) ShardOf(key []byte) int { return kv.eng.ShardFor(key) }

// Enqueue queues ops — every key must route to shard si under ShardOf —
// as one submission on that shard's writer and returns without waiting for
// the commit; Wait(r) blocks until errs (len(ops)) is filled. The writer
// gathers whatever concurrent callers have enqueued into one group commit,
// so a caller with work for several shards enqueues one handle per shard
// and then waits on each: no cross-shard barrier, and every writer busy at
// once. The handle carries the caller's slices directly (zero-copy), so
// the caller must not touch ops, errs or units until Wait returns. units
// lists the op counts of the submission's atomic units (nil: one unit), as
// shard.Engine.Enqueue documents: a caller coalescing independent requests
// passes one unit per request. A mailbox full past Options.EnqueueTimeout
// fails the submission with ErrShardBusy, one racing Close with ErrClosed,
// and a shard index outside [0, Shards()) with ErrBadShard; errs is then
// already filled and Wait returns at once.
func (kv *KV) Enqueue(r *Request, si int, ops []Op, errs []error, units []int32) {
	kv.eng.Enqueue(r, si, ops, errs, units)
}

// Wait blocks until the submission r was last enqueued with has its
// verdicts; r may then be enqueued again.
func (kv *KV) Wait(r *Request) { kv.eng.Wait(r) }

// SubmitShard is Enqueue then Wait: one blocking submission on shard si's
// writer.
func (kv *KV) SubmitShard(si int, ops []Op, errs []error) {
	kv.eng.SubmitShard(si, ops, errs)
}

// Put inserts or replaces key's value in one transaction — a single
// upsert either way, never Insert-then-Update's two commits on an existing
// key.
func (kv *KV) Put(key, val []byte) error {
	return kv.eng.Do(Op{Kind: OpPut, Key: key, Val: val})
}

// Insert adds a new key, failing on duplicates.
func (kv *KV) Insert(key, val []byte) error {
	return kv.eng.Do(Op{Kind: OpInsert, Key: key, Val: val})
}

// Get returns the value stored under key.
func (kv *KV) Get(key []byte) ([]byte, bool, error) { return kv.eng.Get(key) }

// GetInto is Get with a caller-supplied destination buffer: the value is
// appended to dst[:0], so a steady-state reader that recycles its buffer
// performs no heap allocation.
func (kv *KV) GetInto(key, dst []byte) ([]byte, bool, error) {
	return kv.eng.GetInto(key, dst)
}

// Delete removes key.
func (kv *KV) Delete(key []byte) error {
	return kv.eng.Do(Op{Kind: OpDelete, Key: key})
}

// ApplyBatch applies ops as group commits of at most Options.MaxBatch
// operations per transaction, returning per-op errors aligned with ops.
// The ops are partitioned by shard and each shard's sub-batch is applied in
// submission order, the shards' sub-batches concurrently — batch boundaries
// (and therefore simulated time) are a pure function of the op sequence,
// unlike the mailbox path. Logical failures (duplicate insert, absent
// key) are reported per op without aborting their batch; see
// internal/shard.ApplyOps.
func (kv *KV) ApplyBatch(ops []Op) []error { return kv.eng.ApplyBatch(ops) }

// Closed reports whether Close has begun.
func (kv *KV) Closed() bool { return kv.closed.Load() }

// Scan visits keys in [lo, hi] in order (nil bounds are open). The
// per-shard streams are k-way merged, so the global order does not depend
// on the shard count.
func (kv *KV) Scan(lo, hi []byte, fn func(k, v []byte) bool) error {
	return kv.eng.ScanLimit(lo, hi, false, 0, fn)
}

// ScanReverse visits keys in [lo, hi] in descending order.
func (kv *KV) ScanReverse(lo, hi []byte, fn func(k, v []byte) bool) error {
	return kv.eng.ScanLimit(lo, hi, true, 0, fn)
}

// ScanLimit is Scan (or ScanReverse, when reverse is set) that ends after
// limit pairs; limit <= 0 means no limit. Each shard reads at most limit
// pairs for it, where a Scan whose fn stops early has already read a full
// chunk on every shard.
func (kv *KV) ScanLimit(lo, hi []byte, reverse bool, limit int, fn func(k, v []byte) bool) error {
	return kv.eng.ScanLimit(lo, hi, reverse, limit, fn)
}

// BatchTx is the operation set available inside a KV.Batch transaction.
type BatchTx interface {
	// Insert adds a new key, failing on duplicates.
	Insert(key, val []byte) error
	// Update replaces an existing key's value.
	Update(key, val []byte) error
	// Delete removes a key.
	Delete(key []byte) error
	// Get reads a key (including this transaction's own writes).
	Get(key []byte) ([]byte, bool, error)
	// Scan visits keys in [lo, hi] in order.
	Scan(lo, hi []byte, fn func(k, v []byte) bool) error
}

// Batch runs fn inside one transaction; all operations commit atomically.
// A store with several shards cannot offer cross-shard atomicity and
// rejects Batch; use ApplyBatch for per-shard group commits.
func (kv *KV) Batch(fn func(tx BatchTx) error) error {
	if kv.Sharded() {
		return errCrossShard
	}
	return kv.eng.Update(0, func(tx *btree.Tx) error { return fn(tx) })
}

// Validate checks full structural integrity of every shard's tree.
func (kv *KV) Validate() error { return kv.eng.Validate() }

// Count returns the number of records (summed across shards).
func (kv *KV) Count() (int, error) { return kv.eng.Count() }

// checkShard validates a per-shard accessor's index: [0, Shards()).
func (kv *KV) checkShard(i int) error {
	if n := kv.Shards(); i < 0 || i >= n {
		return fmt.Errorf("%w: %d (store has %d shard(s))", ErrBadShard, i, n)
	}
	return nil
}

// Heal re-runs recovery on one shard — the containment path after
// ErrShardDown: the degraded shard reattaches over its arena while the
// healthy shards keep serving. Heal on a HEALTHY shard is a documented
// no-op returning nil: recovery is only re-run when the shard actually
// stopped serving, so a background healer can call it unconditionally
// without churning stores under live readers. An out-of-range index is
// ErrBadShard.
func (kv *KV) Heal(i int) error {
	if err := kv.checkShard(i); err != nil {
		return err
	}
	if kv.eng.ShardInfo(i).Health == shard.Healthy {
		return nil
	}
	return kv.eng.Heal(i)
}

// ReopenKV recovers every shard after Crash.
func (kv *KV) ReopenKV() error { return kv.eng.Reopen() }

// Crash simulates a power failure on every shard: each shard's machine
// runs the eviction lottery with the seed decorrelated per shard, and
// in-flight group commits finish first (the crash lands on batch
// boundaries; arm ShardSystem(i).CrashAfter before traffic to fail inside
// a batch). Call ReopenKV to recover.
func (kv *KV) Crash(opts CrashOptions) { kv.eng.Crash(opts) }

// SchemeName reports the active commit scheme (shard 0's).
func (kv *KV) SchemeName() string { return kv.eng.ShardStore(0).Name() }

// System exposes the simulated machine of a one-shard store. With several
// shards there is one machine per shard and System returns nil; use
// ShardSystem.
func (kv *KV) System() *pmem.System {
	if kv.Sharded() {
		return nil
	}
	return kv.eng.ShardSys(0)
}

// ShardSystem returns shard i's simulated machine. Crash-injection
// harnesses arm it before concurrent traffic starts; the machine is only
// synchronised by the engine's shard lock. An out-of-range index is
// ErrBadShard.
func (kv *KV) ShardSystem(i int) (*pmem.System, error) {
	if err := kv.checkShard(i); err != nil {
		return nil, err
	}
	return kv.eng.ShardSys(i), nil
}

// RawStore exposes a one-shard store's pager store for inspection tooling.
// With several shards there is one store per shard and RawStore returns
// nil; use ShardStore.
func (kv *KV) RawStore() pager.Store {
	if kv.Sharded() {
		return nil
	}
	return kv.eng.ShardStore(0)
}

// ShardStore returns shard i's pager store for inspection tooling. An
// out-of-range index is ErrBadShard.
func (kv *KV) ShardStore(i int) (pager.Store, error) {
	if err := kv.checkShard(i); err != nil {
		return nil, err
	}
	return kv.eng.ShardStore(i), nil
}

// SimulatedNS returns the simulated time: the slowest shard's clock — the
// elapsed time of the whole store, since shards run in parallel on
// independent machines.
func (kv *KV) SimulatedNS() int64 { return kv.eng.Stats().SimMaxNS }

// PMStats returns the PM arenas' architectural event counters (summed
// across shards).
func (kv *KV) PMStats() pmem.Stats { return kv.eng.Stats().PM }

// Phases returns the simulated-time phase breakdown (summed across
// shards): total simulated work per phase.
func (kv *KV) Phases() map[string]int64 { return kv.eng.Phases() }

// ShardInfo is one shard's observable state.
type ShardInfo = shard.Info

// ShardStats returns shard i's simulated time, op/batch counters, PM
// stats, and phase breakdown. An out-of-range index is ErrBadShard.
func (kv *KV) ShardStats(i int) (ShardInfo, error) {
	if err := kv.checkShard(i); err != nil {
		return ShardInfo{}, err
	}
	return kv.eng.ShardInfo(i), nil
}

// ShardFragmentation returns shard i's last measured committed-leaf
// fragmentation ratio (dead bytes / cell area), or -1 before any measurement
// or when DefragThreshold is off. An out-of-range index is ErrBadShard.
func (kv *KV) ShardFragmentation(i int) (float64, error) {
	if err := kv.checkShard(i); err != nil {
		return 0, err
	}
	return kv.eng.ShardFragmentation(i), nil
}

// EngineStats aggregates the engine's per-shard counters.
func (kv *KV) EngineStats() shard.Stats { return kv.eng.Stats() }

// ShardScan visits shard i's records in [lo, hi] in ascending order —
// per-shard contents for tooling and the golden determinism tests. An
// out-of-range index is ErrBadShard.
func (kv *KV) ShardScan(i int, lo, hi []byte, fn func(k, v []byte) bool) error {
	if err := kv.checkShard(i); err != nil {
		return err
	}
	return kv.eng.ScanShard(i, lo, hi, fn)
}
