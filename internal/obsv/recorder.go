package obsv

import (
	"sync"
	"sync/atomic"
	"time"
)

// Op classifies an observed operation.
type Op uint8

const (
	// OpPut .. OpDelete mirror the store's mutation kinds.
	OpPut Op = iota
	OpInsert
	OpUpdate
	OpDelete
	// OpGet and OpScan are read operations (no commit-path events).
	OpGet
	OpScan
	// OpBatch is one group-commit transaction (a drained mailbox batch or
	// an ApplyBatch chunk); its event deltas are per transaction.
	OpBatch

	numOps
)

func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpGet:
		return "get"
	case OpScan:
		return "scan"
	case OpBatch:
		return "batch"
	}
	return "unknown"
}

// mutation reports whether o carries commit-path events (one transaction's
// worth for OpPut..OpDelete, one group commit's worth for OpBatch).
func (o Op) mutation() bool { return o <= OpDelete || o == OpBatch }

// Counters is a point-in-time snapshot of the commit path's architectural
// event counters. The facade reads them from the simulated machine's
// existing counters (pmem / htm / scheme stats) — this package never
// counts events itself, it observes deltas between two snapshots.
type Counters struct {
	Flush      int64 `json:"clflush"`
	Fence      int64 `json:"fence"`
	HTMCommit  int64 `json:"htm_commit"`
	HTMAbort   int64 `json:"htm_abort"`
	LogAppend  int64 `json:"log_append"`
	Checkpoint int64 `json:"checkpoint"`
	// SingleLeaf counts commits whose write set was a single leaf page —
	// the FAST+ in-place-eligible shape, counted under every scheme.
	SingleLeaf int64 `json:"single_leaf"`
	// Defrag counts copy-on-write page defragmentations, Coalesce page
	// allocations that succeeded only after the page's free list was
	// coalesced (each one a defragmentation avoided). A shard whose Defrag
	// rate climbs is thrashing on page copies.
	Defrag   int64 `json:"defrag"`
	Coalesce int64 `json:"coalesce"`
	// InPlaceInstall counts slot headers installed in place by an HTM
	// cache-line write. A unit-marked group commit installs one per leaf
	// that only single-leaf units changed, and logs the rest, so it may
	// exceed the number of in-place commits.
	InPlaceInstall int64 `json:"inplace_install"`
	// Relocate counts FAST+ leaves given room by moving a few cells and
	// installing the header in place, where Defrag would have copied them.
	Relocate int64 `json:"relocate"`
}

// numEvents is the number of Counters fields.
const numEvents = 11

// vec returns the fields in declaration order, the order of eventNames.
func (c Counters) vec() [numEvents]int64 {
	return [numEvents]int64{c.Flush, c.Fence, c.HTMCommit, c.HTMAbort,
		c.LogAppend, c.Checkpoint, c.SingleLeaf, c.Defrag, c.Coalesce, c.InPlaceInstall, c.Relocate}
}

// countersOf is the inverse of vec.
func countersOf(v [numEvents]int64) Counters {
	return Counters{Flush: v[0], Fence: v[1], HTMCommit: v[2], HTMAbort: v[3],
		LogAppend: v[4], Checkpoint: v[5], SingleLeaf: v[6], Defrag: v[7], Coalesce: v[8],
		InPlaceInstall: v[9], Relocate: v[10]}
}

// Sub returns c - o, the events between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	a, b := c.vec(), o.vec()
	for i := range a {
		a[i] -= b[i]
	}
	return countersOf(a)
}

// Add returns c + o.
func (c Counters) Add(o Counters) Counters {
	a, b := c.vec(), o.vec()
	for i := range a {
		a[i] += b[i]
	}
	return countersOf(a)
}

// Config tunes a Recorder.
type Config struct {
	// SampleEvery samples every Nth transaction's full event counts into
	// the trace ring (default 64; 1 samples everything).
	SampleEvery int
	// SlowOpNS is the wall-clock threshold above which an operation is
	// logged in the slow-op ring regardless of sampling (default 1 ms).
	SlowOpNS int64
	// RingSize bounds the trace and slow-op rings (default 256 each).
	RingSize int
}

func (c *Config) fill() {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.SlowOpNS <= 0 {
		c.SlowOpNS = int64(time.Millisecond)
	}
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
}

// TraceSample is one sampled transaction: its latency pair and the full
// commit-path event counts it incurred. Samples land in a fixed ring, so
// the hot path never allocates.
type TraceSample struct {
	Seq    uint64   `json:"seq"`
	Op     string   `json:"op"`
	Shard  int32    `json:"shard"`
	Ops    int32    `json:"ops"`
	Slow   bool     `json:"slow,omitempty"`
	WallNS int64    `json:"wall_ns"`
	SimNS  int64    `json:"sim_ns"`
	Events Counters `json:"events"`
}

// Span is an in-flight observation: the wall start time and the simulated
// clock / event-counter snapshots taken at Begin. It is a small value —
// callers keep it on the stack, so Begin/EndBatch allocate nothing.
type Span struct {
	t0   time.Time
	sim0 int64
	ev0  Counters
	on   bool
}

// Recorder accumulates one store's observations. All methods are safe for
// concurrent use and are no-ops on a nil receiver, so callers hold a
// single possibly-nil pointer and pay one branch when metrics are off.
type Recorder struct {
	cfg  Config
	wall [numOps]Histogram // wall-clock ns per op
	sim  [numOps]Histogram // simulated ns per op

	// Per-transaction commit-path event distributions (mutations only).
	flushPer Histogram
	fencePer Histogram

	// Group-commit shape.
	batchSize Histogram
	mailDepth Histogram

	// Read-path shape: optimistic vs locked Get outcomes, and Gets that
	// queued behind a commit.
	getOptimistic atomic.Int64
	getLocked     atomic.Int64
	getRetries    atomic.Int64

	events  [numEvents]atomic.Int64 // totals, in Counters.vec order
	batches atomic.Int64
	slows   atomic.Int64
	seq     atomic.Uint64

	mu       sync.Mutex
	ring     []TraceSample
	ringN    uint64 // total samples ever written
	slowRing []TraceSample
	slowN    uint64
}

// New builds a Recorder; rings are allocated once, up front.
func New(cfg Config) *Recorder {
	cfg.fill()
	return &Recorder{
		cfg:      cfg,
		ring:     make([]TraceSample, cfg.RingSize),
		slowRing: make([]TraceSample, cfg.RingSize),
	}
}

// Begin opens a span. sim0 and ev0 are the simulated clock and the
// commit-path counter snapshot at entry (zero values are fine for reads).
func (r *Recorder) Begin(sim0 int64, ev0 Counters) Span {
	if r == nil {
		return Span{}
	}
	return Span{t0: time.Now(), sim0: sim0, ev0: ev0, on: true}
}

// EndBatch closes a span as one group-commit transaction of n operations,
// returning the simulated-time delta so the caller can spread it over the
// batch's ops (0 when the span is inactive).
func (r *Recorder) EndBatch(sp Span, shard int32, n int, sim1 int64, ev1 Counters) int64 {
	if r == nil || !sp.on {
		return 0
	}
	simD := sim1 - sp.sim0
	r.batches.Add(1)
	r.batchSize.Observe(int64(n))
	r.observe(OpBatch, shard, int32(n), time.Since(sp.t0).Nanoseconds(), simD, ev1.Sub(sp.ev0))
	return simD
}

// observe is the shared hot-path sink: histograms, event totals, and
// (sampled or slow) trace capture. Allocation-free.
func (r *Recorder) observe(op Op, shard, n int32, wallNS, simNS int64, ev Counters) {
	r.wall[op].Observe(wallNS)
	r.sim[op].Observe(simNS)
	if op.mutation() {
		r.flushPer.Observe(ev.Flush)
		r.fencePer.Observe(ev.Fence)
		r.addEvents(ev)
	}
	seq := r.seq.Add(1)
	slow := wallNS >= r.cfg.SlowOpNS
	if slow {
		r.slows.Add(1)
	}
	if slow || seq%uint64(r.cfg.SampleEvery) == 0 {
		r.capture(TraceSample{
			Seq: seq, Op: op.String(), Shard: shard, Ops: n,
			Slow: slow, WallNS: wallNS, SimNS: simNS, Events: ev,
		})
	}
}

// ObserveWall records one operation's wall-clock latency without a
// simulated/event span — the sharded submission path, where the client's
// perceived latency (queueing + group commit) is measured at the mailbox
// while the commit path is observed per batch by the writer.
func (r *Recorder) ObserveWall(op Op, shard int32, wallNS int64) {
	if r == nil {
		return
	}
	r.wall[op].Observe(wallNS)
	if wallNS >= r.cfg.SlowOpNS {
		r.slows.Add(1)
		r.capture(TraceSample{
			Seq: r.seq.Add(1), Op: op.String(), Shard: shard, Ops: 1,
			Slow: true, WallNS: wallNS,
		})
	}
}

// ObserveSim records one operation's simulated-time share (a batch's sim
// delta spread over its ops).
func (r *Recorder) ObserveSim(op Op, simNS int64) {
	if r == nil {
		return
	}
	r.sim[op].Observe(simNS)
}

// ObserveMailDepth records a shard mailbox's queued-request depth at drain
// time.
func (r *Recorder) ObserveMailDepth(depth int) {
	if r == nil {
		return
	}
	r.mailDepth.Observe(int64(depth))
}

// ObserveReadPath records one Get's path outcome: whether its snapshot walk
// ran optimistically (inside its shard's read gate, off the shard lock) or
// was refused inside the gate ("locked": an unhealthy shard), and whether
// it queued behind a commit holding the gate (counted as a retry).
func (r *Recorder) ObserveReadPath(optimistic, queued bool) {
	if r == nil {
		return
	}
	if optimistic {
		r.getOptimistic.Add(1)
	} else {
		r.getLocked.Add(1)
	}
	if queued {
		r.getRetries.Add(1)
	}
}

func (r *Recorder) addEvents(ev Counters) {
	for i, d := range ev.vec() {
		if d != 0 {
			r.events[i].Add(d)
		}
	}
}

// capture writes a sample into the appropriate ring slot(s).
func (r *Recorder) capture(s TraceSample) {
	r.mu.Lock()
	r.ring[r.ringN%uint64(len(r.ring))] = s
	r.ringN++
	if s.Slow {
		r.slowRing[r.slowN%uint64(len(r.slowRing))] = s
		r.slowN++
	}
	r.mu.Unlock()
}

// drainRing copies a ring oldest-first (cold path).
func drainRing(ring []TraceSample, written uint64) []TraceSample {
	n := written
	if n > uint64(len(ring)) {
		n = uint64(len(ring))
	}
	out := make([]TraceSample, 0, n)
	start := written - n
	for i := uint64(0); i < n; i++ {
		out = append(out, ring[(start+i)%uint64(len(ring))])
	}
	return out
}

// TraceSamples returns the sampled-transaction ring, oldest first.
func (r *Recorder) TraceSamples() []TraceSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return drainRing(r.ring, r.ringN)
}

// SlowSamples returns the slow-op ring, oldest first.
func (r *Recorder) SlowSamples() []TraceSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return drainRing(r.slowRing, r.slowN)
}

// OpStats summarises one op kind's latency distributions.
type OpStats struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`

	WallP50NS  int64   `json:"wall_p50_ns"`
	WallP95NS  int64   `json:"wall_p95_ns"`
	WallP99NS  int64   `json:"wall_p99_ns"`
	WallMeanNS float64 `json:"wall_mean_ns"`

	SimP50NS  int64   `json:"sim_p50_ns"`
	SimP95NS  int64   `json:"sim_p95_ns"`
	SimP99NS  int64   `json:"sim_p99_ns"`
	SimMeanNS float64 `json:"sim_mean_ns"`
}

// Snapshot is a Recorder's cold-path summary (allocates; call off the hot
// path).
type Snapshot struct {
	Ops       []OpStats    `json:"ops,omitempty"`
	Events    Counters     `json:"events"`
	Batches   int64        `json:"batches"`
	SlowOps   int64        `json:"slow_ops"`
	Seen      uint64       `json:"seen"` // operations + batches observed
	BatchSize HistSnapshot `json:"batch_size"`
	MailDepth HistSnapshot `json:"mail_depth"`
	FlushPer  HistSnapshot `json:"clflush_per_txn"`
	FencePer  HistSnapshot `json:"fence_per_txn"`

	// Read-path split: Gets served optimistically vs refused on an
	// unhealthy shard, and Gets that queued behind a commit holding the
	// read gate.
	GetOptimistic int64 `json:"get_optimistic"`
	GetLocked     int64 `json:"get_locked"`
	GetRetries    int64 `json:"get_retries"`
}

// OpStats extracts one op's summary from the snapshot (zero if absent).
func (s Snapshot) OpStats(op Op) OpStats {
	for _, o := range s.Ops {
		if o.Op == op.String() {
			return o
		}
	}
	return OpStats{Op: op.String()}
}

// Snapshot summarises the recorder's current state. Nil-safe.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var ev [numEvents]int64
	for i := range ev {
		ev[i] = r.events[i].Load()
	}
	s := Snapshot{
		Events:    countersOf(ev),
		Batches:   r.batches.Load(),
		SlowOps:   r.slows.Load(),
		Seen:      r.seq.Load(),
		BatchSize: r.batchSize.Snapshot(),
		MailDepth: r.mailDepth.Snapshot(),
		FlushPer:  r.flushPer.Snapshot(),
		FencePer:  r.fencePer.Snapshot(),

		GetOptimistic: r.getOptimistic.Load(),
		GetLocked:     r.getLocked.Load(),
		GetRetries:    r.getRetries.Load(),
	}
	for op := Op(0); op < numOps; op++ {
		w, m := r.wall[op].Snapshot(), r.sim[op].Snapshot()
		if w.Count == 0 && m.Count == 0 {
			continue
		}
		s.Ops = append(s.Ops, OpStats{
			Op:    op.String(),
			Count: w.Count,

			WallP50NS:  w.Quantile(0.50),
			WallP95NS:  w.Quantile(0.95),
			WallP99NS:  w.Quantile(0.99),
			WallMeanNS: w.Mean(),

			SimP50NS:  m.Quantile(0.50),
			SimP95NS:  m.Quantile(0.95),
			SimP99NS:  m.Quantile(0.99),
			SimMeanNS: m.Mean(),
		})
	}
	return s
}
