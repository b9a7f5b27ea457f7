package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fasp/internal/btree"
	"fasp/internal/obsv"
	"fasp/internal/pager"
	"fasp/internal/pmem"
)

// Defaults for Config.
const (
	// DefaultMaxBatch bounds the operations one group commit may drain.
	DefaultMaxBatch = 64
	// MaxBatchLimit is the largest MaxBatch New accepts: the mailbox is
	// allocated at mailboxFactor × MaxBatch slots up front.
	MaxBatchLimit = 1 << 16
	// mailboxFactor sizes a shard's mailbox as a multiple of MaxBatch, so
	// a burst can queue a few batches ahead of the writer.
	mailboxFactor = 4
	// DefaultEnqueueTimeout bounds how long a submission waits for mailbox
	// space before giving up with ErrBusy.
	DefaultEnqueueTimeout = 2 * time.Second
)

// ErrCrashed is returned for operations submitted to a shard whose
// simulated machine has suffered a (injected or explicit) power failure
// and has not been recovered yet; call Engine.Reopen.
var ErrCrashed = errors.New("shard: store crashed; recovery required")

// ErrShardDown is returned (wrapped, with the root cause) for operations
// submitted to a shard whose writer hit a fault that is not a simulated
// power failure — a store panic or hard PM error. The fault is contained:
// the writer keeps draining its mailbox (failing every batch with this
// error), the other shards keep serving, and Engine.Heal re-runs recovery
// on just the degraded shard.
var ErrShardDown = errors.New("shard: writer faulted; shard degraded until healed")

// ErrBusy is returned when a shard's mailbox stays full for the whole
// enqueue timeout — the writer is wedged or the shard is badly
// oversubscribed. The submission is not applied.
var ErrBusy = errors.New("shard: mailbox full; enqueue timed out")

// ErrBadShard is returned (wrapped, with the index) for a shard index
// outside [0, Shards()).
var ErrBadShard = errors.New("shard: index out of range")

// ErrClosed is returned for write operations submitted after Close: the
// writer goroutines have exited and nothing will serve the mailbox. The
// submission is not applied. (Reads keep working — they never needed a
// writer.)
var ErrClosed = errors.New("shard: engine closed")

// Backend is one shard's independent store: its own simulated machine,
// PM arena, and commit-scheme store. The engine owns all access to it.
type Backend struct {
	Sys   *pmem.System
	Arena *pmem.Arena
	Store pager.Store
}

// Config builds an Engine. Open and Reattach keep the engine
// scheme-agnostic: the facade supplies closures that construct and recover
// whichever commit scheme the caller picked.
type Config struct {
	// Shards is the number of hash partitions (≥ 1).
	Shards int
	// MaxBatch bounds the operations per group commit (default 64, at
	// most MaxBatchLimit).
	MaxBatch int
	// EnqueueTimeout bounds how long a submission waits (with backoff) for
	// mailbox space before failing with ErrBusy (default 2s).
	EnqueueTimeout time.Duration
	// Open creates shard i's backend on a fresh simulated machine.
	Open func(i int) (*Backend, error)
	// Reattach rebuilds shard i's store over its surviving arena after a
	// crash and runs the scheme's recovery.
	Reattach func(i int, be *Backend) (pager.Store, error)
	// Recorder, when set, observes the engine: per-op wall latency at the
	// mailbox, per-batch simulated time and commit-path events at the
	// writer, batch-size and mailbox-depth distributions.
	Recorder *obsv.Recorder
	// Counters snapshots shard i's commit-path event counters (clflush,
	// fence, HTM, log appends) so the recorder can observe per-batch
	// deltas. The facade supplies the scheme-aware bridge; nil means event
	// deltas are not recorded.
	Counters func(i int, be *Backend) obsv.Counters
	// DefragThreshold enables proactive copy-on-write defragmentation: every
	// 32nd write round a shard applies without a fault measures the
	// committed tree's leaf fragmentation, and leaves at or above the
	// threshold are rewritten — a first few at once, the rest during idle
	// group-commit slots (see defrag.go). 0 disables.
	DefragThreshold float64
	// FaultHook, when set, runs at the top of every group commit with the
	// shard index, inside the contained writer section: a panic degrades
	// just that shard (wrapped ErrShardDown until Heal re-runs recovery), a
	// sleep stalls that shard's batch while the others keep serving.
	// Different shards call it concurrently, on either apply path. The
	// fault-injection harness (internal/faultx) plugs in here; production
	// leaves it nil.
	FaultHook func(shard int)
}

func (c *Config) fill() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: Shards must be ≥ 1, got %d", c.Shards)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxBatch > MaxBatchLimit {
		return fmt.Errorf("shard: MaxBatch must be ≤ %d, got %d", MaxBatchLimit, c.MaxBatch)
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = DefaultEnqueueTimeout
	}
	if c.Open == nil {
		return errors.New("shard: Config.Open is required")
	}
	if c.Reattach == nil {
		return errors.New("shard: Config.Reattach is required")
	}
	return nil
}

// Health is one shard's serving state.
type Health int

const (
	// Healthy shards serve reads and writes. The zero value, so healthy
	// shards keep their golden-test JSON stable.
	Healthy Health = iota
	// Crashed shards suffered a simulated power failure; Reopen (or Heal)
	// runs recovery.
	Crashed
	// Degraded shards hit a writer fault (store panic / hard PM error);
	// Heal re-runs recovery on just that shard.
	Degraded
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Crashed:
		return "crashed"
	case Degraded:
		return "degraded"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// Info is one shard's observable state, for stats aggregation and the
// golden determinism tests.
type Info struct {
	// SimNS is the shard machine's simulated time.
	SimNS int64 `json:"sim_ns"`
	// Ops counts operations applied through the writer or ApplyBatch.
	Ops int64 `json:"ops"`
	// Batches counts committed group-commit transactions.
	Batches int64 `json:"batches"`
	// MaxDrained is the largest batch one drain has committed.
	MaxDrained int `json:"max_drained"`
	// ScanPairs counts the pairs this shard has gathered for range reads
	// (Scan, ScanShard, Count), whether or not the caller consumed them.
	ScanPairs int64 `json:"scan_pairs,omitempty"`
	// DefragPages counts the leaves proactive defragmentation has rewritten.
	DefragPages int64 `json:"defrag_pages,omitempty"`
	// PM is the shard arena's architectural event counters.
	PM pmem.Stats `json:"pm_stats"`
	// Phases is the shard clock's per-phase simulated-time breakdown.
	Phases map[string]int64 `json:"phases"`
	// Health is the shard's serving state (zero = healthy).
	Health Health `json:"health,omitempty"`
	// Fault is the root cause text when Health is Degraded.
	Fault string `json:"fault,omitempty"`
}

// Stats aggregates the engine's shards.
type Stats struct {
	Shards int
	// CrashedShards and DegradedShards count the shards not serving.
	CrashedShards  int
	DegradedShards int
	Ops            int64
	Batches        int64
	// MaxDrained is the largest single group commit across shards.
	MaxDrained int
	// PM sums the per-shard architectural event counters.
	PM pmem.Stats
	// SimMaxNS is the slowest shard's simulated time — the simulated
	// elapsed time of the sharded system, since shards run in parallel.
	SimMaxNS int64
	// SimSumNS is the total simulated work across shards.
	SimSumNS int64
}

// state is one shard: a backend plus its writer goroutine. mu guards
// everything below it — the simulated machine is not internally
// synchronised. Reads walk the committed snapshot OFF the lock, holding
// the read side of gate (see read.go): every mutation of the machine, of
// be.Store and of the crashed/degraded/downCause health state happens
// under mu inside the write side (beginMutate/endMutate), so a read step
// may read those fields too.
type state struct {
	id       int
	maxBatch int // Config.MaxBatch: the drain and ApplyBatch chunk bound

	mu         sync.Mutex
	be         *Backend
	tree       *btree.Tree
	closed     bool // sealed by Engine.Close after the writer drained
	crashed    bool
	degraded   bool
	downCause  error
	ops        int64
	batches    int64
	maxDrained int

	// The read gate (read.go): a read step holds its read side, a mutator
	// its write side. scanPairs counts the pairs range reads have gathered.
	gate      sync.RWMutex
	scanPairs atomic.Int64

	mail chan *Request
	quit chan struct{}
	done chan struct{}

	// faultHook is Config.FaultHook (nil in production).
	faultHook func(int)

	// rec/evFn are the observability hooks (nil when metrics are off).
	// evFn is bound once at construction; it reads be.Store at call time,
	// so it stays correct across Heal's store replacement.
	rec  *obsv.Recorder
	evFn func() obsv.Counters

	// Proactive defragmentation state (defrag.go), under mu. defragTh is
	// Config.DefragThreshold (0: off); sinceScan counts write rounds since the
	// last measurement; frag and hotKeys hold that measurement (frag is -1
	// until measured); defragged counts the leaves rewritten.
	defragTh  float64
	sinceScan int
	frag      float64
	hotKeys   [][]byte
	defragged int64
}

// counters snapshots the shard's commit-path event counters (zero when no
// bridge is configured). Callers hold s.mu.
func (s *state) counters() obsv.Counters {
	if s.evFn == nil {
		return obsv.Counters{}
	}
	return s.evFn()
}

// kindOp maps an OpKind to its observability label.
var kindOp = [4]obsv.Op{
	OpPut:    obsv.OpPut,
	OpInsert: obsv.OpInsert,
	OpUpdate: obsv.OpUpdate,
	OpDelete: obsv.OpDelete,
}

// Engine is the sharded store engine.
type Engine struct {
	cfg       Config
	shards    []*state
	closed    atomic.Bool
	closeOnce sync.Once
}

// New builds the engine and starts one writer goroutine per shard.
func New(cfg Config) (*Engine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, shards: make([]*state, cfg.Shards)}
	for i := range e.shards {
		be, err := cfg.Open(i)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s := &state{
			id:       i,
			maxBatch: cfg.MaxBatch,
			be:       be,
			tree:     btree.New(be.Store),
			mail:     make(chan *Request, mailboxFactor*cfg.MaxBatch),
			quit:     make(chan struct{}),
			done:     make(chan struct{}),
			rec:      cfg.Recorder,

			faultHook: cfg.FaultHook,
			defragTh:  cfg.DefragThreshold,
			frag:      -1,
		}
		if cfg.Counters != nil {
			i, be := i, be
			s.evFn = func() obsv.Counters { return cfg.Counters(i, be) }
		}
		e.shards[i] = s
	}
	for _, s := range e.shards {
		go s.run()
	}
	return e, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// MaxBatch returns the group-commit drain bound.
func (e *Engine) MaxBatch() int { return e.cfg.MaxBatch }

// ShardFor routes a key: FNV-1a over the key, modulo the shard count.
// The hash is part of the on-disk contract — snapshots record the shard
// count and images are only valid under the same routing.
func (e *Engine) ShardFor(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h = (h ^ uint64(c)) * prime64
	}
	return int(h % uint64(len(e.shards)))
}

// Close stops the writer goroutines after serving every queued request.
// It is idempotent, and safe to call while shards are crashed or degraded
// (their writers still drain, reporting errors). Write operations
// submitted after Close fail with ErrClosed instead of deadlocking on an
// unserved mailbox; reads keep working.
func (e *Engine) Close() {
	e.closed.Store(true)
	e.closeOnce.Do(func() {
		for _, s := range e.shards {
			close(s.quit)
		}
		for _, s := range e.shards {
			<-s.done
		}
		// Seal each shard under its lock. A locked-path ApplyBatch that
		// passed the engine-level closed check either already holds s.mu —
		// then Close waits for it here, so its commit lands before Close
		// returns — or it takes the lock later and fails with ErrClosed.
		// Nothing commits after Close returns.
		for _, s := range e.shards {
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
		}
	})
}

// Closed reports whether Close has begun.
func (e *Engine) Closed() bool { return e.closed.Load() }

// ApplyBatch partitions ops by shard and applies each shard's sub-batch in
// submission order, as group commits of at most MaxBatch ops, returning
// per-op errors aligned with ops. The shards' sub-batches are applied
// concurrently: a shard's commit marks live in its own arena, so the
// shards are independent machines.
//
// Unlike the mailbox path, batch boundaries here are a pure function of
// the op sequence, so per-shard simulated time is bit-reproducible; the
// golden determinism tests pin it.
func (e *Engine) ApplyBatch(ops []Op) []error {
	errs := make([]error, len(ops))
	// Close's contract: writes after Close fail with ErrClosed. The mailbox
	// path enforces it in submit; this locked path must too, or a post-Close
	// ApplyBatch silently mutates a store its owner believes quiesced.
	if e.closed.Load() {
		for i := range errs {
			errs[i] = ErrClosed
		}
		return errs
	}
	// Lay the ops out shard-major: shard si's sub-batch is
	// sorted[start[si]:start[si+1]], and from maps it back to ops.
	sid := make([]int32, len(ops))
	start := make([]int, len(e.shards)+1)
	for i := range ops {
		si := e.ShardFor(ops[i].Key)
		sid[i] = int32(si)
		start[si+1]++
	}
	var busy []int
	for si := range e.shards {
		if start[si+1] > 0 {
			busy = append(busy, si)
		}
		start[si+1] += start[si]
	}
	if len(busy) == 1 {
		e.shards[busy[0]].applyLocked(ops, errs, nil)
		return errs
	}
	sorted := make([]Op, len(ops))
	from := make([]int, len(ops))
	next := append([]int(nil), start[:len(e.shards)]...)
	for i, si := range sid {
		k := next[si]
		next[si]++
		sorted[k], from[k] = ops[i], i
	}
	sErrs := make([]error, len(ops))
	fanOut(busy, func(si int) error {
		lo, hi := start[si], start[si+1]
		e.shards[si].applyLocked(sorted[lo:hi], sErrs[lo:hi], nil)
		return nil
	})
	for k, i := range from {
		errs[i] = sErrs[k]
	}
	return errs
}

// fanOut runs fn for every shard index in shards (ascending), each on its
// own goroutine but the first, which runs on the caller's — so one shard's
// work spawns nothing. It waits for all of them and returns the error of
// the lowest-index shard that failed.
func fanOut(shards []int, fn func(si int) error) error {
	if len(shards) == 0 {
		return nil
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k := 1; k < len(shards); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = fn(shards[k])
		}()
	}
	errs[0] = fn(shards[0])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// unavailable returns the error every operation on this shard gets while
// it is not serving, or nil. Callers hold s.mu or the read gate's read side.
func (s *state) unavailable() error {
	switch {
	case s.crashed:
		return ErrCrashed
	case s.degraded:
		return fmt.Errorf("shard %d: %w: %v", s.id, ErrShardDown, s.downCause)
	}
	return nil
}

// refuseWrite is unavailable plus the post-Close seal: the error a mutation
// of this shard gets instead of running, or nil. Callers hold s.mu.
func (s *state) refuseWrite() error {
	if s.closed {
		return ErrClosed
	}
	return s.unavailable()
}

// contain executes fn under the shard machine's crash injector and
// additionally contains every other panic — a store bug or a hard PM error
// must degrade this one shard, not kill the writer goroutine (which would
// wedge the mailbox) or the process. When fn died it returns the error for
// everything fn was doing, none of which can be acknowledged:
//
//   - a fault degrades the shard until Heal re-runs recovery over its
//     (intact) arena; the other shards are untouched;
//   - an injected power failure unwound mid-section: whatever did not reach
//     a commit mark is gone, and even committed ops cannot be acknowledged
//     (the crash may have fired between the mark and the reply). The shard
//     stays poisoned with its volatile state frozen; the harness then calls
//     Engine.Crash to run the eviction lottery (the power failure proper)
//     and Reopen to recover — the same arm/crash/reattach protocol
//     cmd/crashtest drives on a bare store.
//
// Callers hold s.mu inside the write gate.
func (s *state) contain(fn func()) error {
	crashed, fault := func() (crashed bool, fault error) {
		defer func() {
			if r := recover(); r != nil {
				fault = fmt.Errorf("writer panic: %v", r)
			}
		}()
		return s.be.Sys.RunToCrash(fn), nil
	}()
	switch {
	case fault != nil:
		s.degraded = true
		s.downCause = fault
	case crashed:
		s.crashed = true
	default:
		return nil
	}
	return s.unavailable()
}

// applyLocked takes the shard lock and applies ops as group commits of at
// most s.maxBatch (units as in ApplyUnits), honouring the closed, crashed
// and degraded flags; a batch that dies mid-apply (see contain) reports its
// cause for every op.
func (s *state) applyLocked(ops []Op, errs []error, units []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refuseWrite(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return
	}
	s.beginMutate()
	defer s.endMutate()
	var sp obsv.Span
	if s.rec != nil {
		sp = s.rec.Begin(s.be.Sys.Clock().Now(), s.counters())
	}
	down := s.contain(func() {
		if s.faultHook != nil {
			s.faultHook(s.id)
		}
		s.batches += ApplyUnits(s.tree, s.maxBatch, ops, errs, units)
	})
	if s.rec != nil {
		// One group commit observed: batch size, wall/sim latency, and the
		// commit-path event delta; the batch's simulated time is spread
		// evenly over its ops for the per-kind distributions. Pure reads of
		// the machine's counters — the simulated clock never advances here,
		// so the golden determinism files are untouched.
		simD := s.rec.EndBatch(sp, int32(s.id), len(ops), s.be.Sys.Clock().Now(), s.counters())
		if n := int64(len(ops)); n > 0 {
			per := simD / n
			for i := range ops {
				s.rec.ObserveSim(kindOp[ops[i].Kind], per)
			}
		}
	}
	if down != nil {
		for i := range errs {
			errs[i] = down
		}
	} else if s.defragTh > 0 {
		s.defragTick()
	}
	s.ops += int64(len(ops))
	// ApplyUnits chunks at maxBatch, so the largest single group commit out
	// of this submission is capped by it.
	drained := len(ops)
	if drained > s.maxBatch {
		drained = s.maxBatch
	}
	if drained > s.maxDrained {
		s.maxDrained = drained
	}
}

// Update runs fn inside one transaction on shard si — the explicit multi-op
// transaction behind the facade's Batch — in the bracket every group commit
// runs in: shard lock, write gate, crash and fault containment. An error
// from fn rolls the transaction back and is returned as is.
func (e *Engine) Update(si int, fn func(tx *btree.Tx) error) error {
	s := e.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refuseWrite(); err != nil {
		return err
	}
	s.beginMutate()
	defer s.endMutate()
	var err error
	if down := s.contain(func() {
		var tx *btree.Tx
		if tx, err = s.tree.Begin(); err != nil {
			return
		}
		if err = fn(tx); err != nil {
			tx.Rollback()
			return
		}
		err = tx.Commit()
	}); down != nil {
		return down
	}
	return err
}

// Validate checks full structural integrity of every shard's tree.
func (e *Engine) Validate() error {
	for i, s := range e.shards {
		err := func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if err := s.unavailable(); err != nil {
				return err
			}
			s.beginMutate()
			defer s.endMutate()
			tx, err := s.tree.Begin()
			if err != nil {
				return err
			}
			defer tx.Rollback()
			return tx.Validate()
		}()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Crash simulates a power failure on every shard: each shard's machine
// runs its eviction lottery (with the seed decorrelated per shard) and the
// shard is poisoned until Reopen. In-flight batches finish first — the
// crash takes each shard's lock — so explicit Crash lands on group-commit
// boundaries; use pmem's crash injection (ShardSys + CrashAfter) to fail
// *inside* a batch.
func (e *Engine) Crash(opts pmem.CrashOptions) {
	for _, s := range e.shards {
		s.mu.Lock()
	}
	for i, s := range e.shards {
		o := opts
		o.Seed = opts.Seed + int64(i)
		s.beginMutate()
		s.be.Sys.Crash(o)
		s.crashed = true
		s.endMutate()
	}
	for _, s := range e.shards {
		s.mu.Unlock()
	}
}

// Heal recovers one shard: the configured Reattach rebuilds its store over
// the surviving arena and runs the commit scheme's recovery, clearing the
// crashed and degraded flags. It is the containment counterpart of Reopen —
// after a writer fault, healing the one degraded shard brings it back
// without touching the healthy ones. A fresh store over the arena also
// resets any poisoned in-DRAM store state the faulting batch left behind;
// acked writes live in PM and survive.
func (e *Engine) Heal(i int) error {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginMutate()
	defer s.endMutate()
	ns, err := e.cfg.Reattach(i, s.be)
	if err != nil {
		return fmt.Errorf("shard %d: heal: %w", i, err)
	}
	s.be.Store = ns
	s.tree = btree.New(ns)
	s.crashed = false
	s.degraded = false
	s.downCause = nil
	return nil
}

// Reopen recovers every shard after a crash: Heal on each one in turn.
func (e *Engine) Reopen() error {
	for i := range e.shards {
		if err := e.Heal(i); err != nil {
			return err
		}
	}
	return nil
}

// ShardSys returns shard i's simulated machine, for crash-injection
// harnesses (CrashAfter/CrashPoints). Arm it before concurrent traffic
// starts: the machine itself is only synchronised by the shard lock.
func (e *Engine) ShardSys(i int) *pmem.System { return e.shards[i].be.Sys }

// ShardStore returns shard i's pager store, for inspection tooling.
func (e *Engine) ShardStore(i int) pager.Store {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.be.Store
}

// ShardInfo returns shard i's observable state.
func (e *Engine) ShardInfo(i int) Info {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	in := Info{
		SimNS:       s.be.Sys.Clock().Now(),
		Ops:         s.ops,
		Batches:     s.batches,
		MaxDrained:  s.maxDrained,
		ScanPairs:   s.scanPairs.Load(),
		DefragPages: s.defragged,
		PM:          s.be.Arena.Stats(),
		Phases:      s.be.Sys.Clock().Phases(),
	}
	switch {
	case s.crashed:
		in.Health = Crashed
	case s.degraded:
		in.Health = Degraded
		in.Fault = s.downCause.Error()
	}
	return in
}

// Stats aggregates all shards.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: len(e.shards)}
	for i := range e.shards {
		in := e.ShardInfo(i)
		switch in.Health {
		case Crashed:
			st.CrashedShards++
		case Degraded:
			st.DegradedShards++
		}
		st.Ops += in.Ops
		st.Batches += in.Batches
		if in.MaxDrained > st.MaxDrained {
			st.MaxDrained = in.MaxDrained
		}
		st.PM = st.PM.Add(in.PM)
		st.SimSumNS += in.SimNS
		if in.SimNS > st.SimMaxNS {
			st.SimMaxNS = in.SimNS
		}
	}
	return st
}

// Gauges returns one health/throughput gauge per shard for the metrics
// exporter, each read under its shard's lock.
func (e *Engine) Gauges() []obsv.ShardGauge {
	out := make([]obsv.ShardGauge, len(e.shards))
	for i, s := range e.shards {
		s.mu.Lock()
		health := Healthy
		switch {
		case s.crashed:
			health = Crashed
		case s.degraded:
			health = Degraded
		}
		out[i] = obsv.ShardGauge{
			Shard:         i,
			Health:        health.String(),
			Ops:           s.ops,
			Batches:       s.batches,
			SimNS:         s.be.Sys.Clock().Now(),
			Flushes:       s.be.Arena.Stats().FlushCalls,
			Fences:        s.be.Sys.Fences(),
			Scheme:        strings.ToLower(s.be.Store.Name()),
			Fragmentation: s.frag,
		}
		s.mu.Unlock()
	}
	return out
}

// Phases sums the per-shard simulated-time phase breakdowns.
func (e *Engine) Phases() map[string]int64 {
	out := map[string]int64{}
	for i := range e.shards {
		for k, v := range e.ShardInfo(i).Phases {
			out[k] += v
		}
	}
	return out
}

// MediumSnapshots returns a crash-consistent PM image per shard, each
// taken under its shard's lock. Cross-shard skew (a batch committing on
// shard j while shard i is copied) is benign: there are no cross-shard
// transactions, so every image pins a valid prefix of its own history.
func (e *Engine) MediumSnapshots() [][]byte {
	imgs := make([][]byte, len(e.shards))
	for i, s := range e.shards {
		s.mu.Lock()
		imgs[i] = s.be.Arena.MediumSnapshot()
		s.mu.Unlock()
	}
	return imgs
}

// RestoreShard replaces shard i's durable medium with a snapshot image and
// poisons the shard until Reopen runs recovery over it.
func (e *Engine) RestoreShard(i int, img []byte) error {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginMutate()
	defer s.endMutate()
	if err := s.be.Arena.RestoreMedium(img); err != nil {
		return err
	}
	s.crashed = true
	return nil
}
