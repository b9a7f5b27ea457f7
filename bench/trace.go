package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// The traced run wraps every call the benchmark makes into a layer in a
// span recorded here, in the benchmark's own files: name, start, end,
// parent, op id, on both clocks, with the PM event counters read at the
// same boundaries. Nothing inside the program is instrumented.

type spanKind uint8

const (
	spanOp spanKind = iota // one op at the entry point under test (root)
	spanTxBegin
	spanPage
	spanAlloc
	spanOpEnd
	spanCommit
	spanRollback
	spanParse
	spanEncode
	spanFlush
	spanWait
	spanDecode
	spanSubmit
	spanGet
	spanScan
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"op", "pager.Begin", "pager.Page", "pager.AllocPage", "pager.OpEnd", "pager.Commit", "pager.Rollback",
	"sql.Parse", "client.encode", "client.flush", "client.wait", "client.decode",
	"engine.SubmitShard", "engine.GetInto", "engine.Scan",
}

// spanRec is one span of a kept tree.
type spanRec struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index in the tree, -1 for the root
	Op      int64  `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SimNS   int64  `json:"sim_ns"` // simulated time that passed inside
}

// spanAgg aggregates every span of one name.
type spanAgg struct {
	n                int64
	hostNS, selfHost int64
	simNS, selfSim   int64
	fills, flushes   int64
	lat              hist
}

type openSpan struct {
	kind                spanKind
	host0, sim0         int64
	childHost, childSim int64
	fills0, flushes0    int64
	rec                 int
}

// tracer records one goroutine's spans. A nil tracer records nothing, so
// the untraced run shares the generator code at the cost of a nil test.
type tracer struct {
	t0    time.Time
	clock *pmem.Clock // the simulated clock under the entry point, or nil
	arena *pmem.Arena // its PM arena (for event counters), or nil
	off   bool        // set while preloading
	stack []openSpan
	agg   [nSpanKinds]spanAgg
	ops   int64
	cur   []spanRec   // the tree being kept, if any
	trees [][]spanRec // every 64th op's full tree, up to maxTrees
}

const (
	keepEvery = 64
	maxTrees  = 256
)

func newTracer(clock *pmem.Clock, arena *pmem.Arena) *tracer {
	return &tracer{t0: time.Now(), clock: clock, arena: arena, stack: make([]openSpan, 0, 8)}
}

func (t *tracer) begin(k spanKind) {
	if t == nil || t.off {
		return
	}
	sp := openSpan{kind: k, rec: -1}
	if t.clock != nil {
		sp.sim0 = t.clock.Now()
		st := t.arena.Stats()
		sp.fills0, sp.flushes0 = st.LineFills, st.FlushCalls
	}
	if len(t.stack) == 0 {
		t.ops++
		if t.ops%keepEvery == 0 && len(t.trees) < maxTrees {
			t.cur = make([]spanRec, 0, 16)
		}
	}
	sp.host0 = int64(time.Since(t.t0))
	if t.cur != nil {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		sp.rec = len(t.cur)
		t.cur = append(t.cur, spanRec{Name: spanNames[k], Parent: parent, Op: t.ops, StartNS: sp.host0})
	}
	t.stack = append(t.stack, sp)
}

func (t *tracer) end() {
	if t == nil || t.off {
		return
	}
	host1 := int64(time.Since(t.t0))
	sp := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	host := host1 - sp.host0
	var sim int64
	a := &t.agg[sp.kind]
	if t.clock != nil {
		sim = t.clock.Now() - sp.sim0
		st := t.arena.Stats()
		a.fills += st.LineFills - sp.fills0
		a.flushes += st.FlushCalls - sp.flushes0
	}
	a.n++
	a.hostNS += host
	a.selfHost += host - sp.childHost
	a.simNS += sim
	a.selfSim += sim - sp.childSim
	a.lat.add(host)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childHost += host
		t.stack[n-1].childSim += sim
	}
	if sp.rec >= 0 {
		t.cur[sp.rec].EndNS, t.cur[sp.rec].SimNS = host1, sim
		if len(t.stack) == 0 {
			t.trees = append(t.trees, t.cur)
			t.cur = nil
		}
	}
}

// merge folds another goroutine's tracer into t.
func (t *tracer) merge(o *tracer) {
	if o == nil {
		return
	}
	for k := range t.agg {
		a, b := &t.agg[k], &o.agg[k]
		a.n += b.n
		a.hostNS += b.hostNS
		a.selfHost += b.selfHost
		a.simNS += b.simNS
		a.selfSim += b.selfSim
		a.fills += b.fills
		a.flushes += b.flushes
		a.lat.merge(&b.lat)
	}
	t.ops += o.ops
	t.trees = append(t.trees, o.trees...)
}

// A span kind's mean self host time, self simulated time and total host
// time per root op.
func (t *tracer) selfPerOp(k spanKind) float64    { return ratio(t.agg[k].selfHost, t.agg[spanOp].n) }
func (t *tracer) selfSimPerOp(k spanKind) float64 { return ratio(t.agg[k].selfSim, t.agg[spanOp].n) }
func (t *tracer) totalPerOp(k spanKind) float64   { return ratio(t.agg[k].hostNS, t.agg[spanOp].n) }

// pagerLedger is the ledger's rows for the storage layer's entry points.
func (t *tracer) pagerLedger() []ledgerRow {
	row := func(name string, kinds ...spanKind) ledgerRow {
		r := ledgerRow{Layer: name, How: "span"}
		for _, k := range kinds {
			r.HostNS += t.selfPerOp(k)
			r.SimNS += t.selfSimPerOp(k)
		}
		return r
	}
	return []ledgerRow{
		row("fast: Begin", spanTxBegin),
		row("fast: Page/AllocPage", spanPage, spanAlloc),
		row("fast: OpEnd", spanOpEnd),
		row("fast: Commit (htm inside)", spanCommit),
		row("fast: Rollback", spanRollback),
	}
}

// spanSummary is one row of the trace file's per-name table.
type spanSummary struct {
	Name       string  `json:"name"`
	Count      int64   `json:"count"`
	HostNS     int64   `json:"host_ns"`
	SelfHostNS int64   `json:"self_host_ns"`
	SimNS      int64   `json:"sim_ns"`
	SelfSimNS  int64   `json:"self_sim_ns"`
	HostP50NS  float64 `json:"host_p50_ns"`
	HostP99NS  float64 `json:"host_p99_ns"`
	LineFills  int64   `json:"line_fills"`
	Flushes    int64   `json:"flushes"`
}

func (t *tracer) summaries() []spanSummary {
	var out []spanSummary
	for k := range t.agg {
		a := &t.agg[k]
		if a.n == 0 {
			continue
		}
		out = append(out, spanSummary{spanNames[k], a.n, a.hostNS, a.selfHost, a.simNS, a.selfSim,
			a.lat.quantile(0.5), a.lat.quantile(0.99), a.fills, a.flushes})
	}
	return out
}

// ledgerRow is one layer's self time per op, on both clocks.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	HostNS float64 `json:"host_ns_per_op"`
	SimNS  float64 `json:"sim_ns_per_op"`
	How    string  `json:"how"`
}

// traceFile is what a traced run leaves in bench/out/.
type traceFile struct {
	Workload string                   `json:"workload"`
	Seed     int64                    `json:"seed"`
	Env      env                      `json:"env"`
	Replays  map[string][]spanSummary `json:"replays"`
	Ledger   []ledgerRow              `json:"ledger,omitempty"`
	// LedgerOpNS is the untraced op span the ledger's rows should add up to;
	// LedgerSumNS is what they do add up to.
	LedgerOpNS  float64                `json:"ledger_op_host_ns,omitempty"`
	LedgerSumNS float64                `json:"ledger_sum_host_ns,omitempty"`
	Trees       map[string][][]spanRec `json:"trees"`
}

func newTraceFile(r *result) *traceFile {
	return &traceFile{Workload: r.Workload, Seed: r.Seed, Env: r.Env,
		Replays: map[string][]spanSummary{}, Trees: map[string][][]spanRec{}}
}

// setLedger records the layer rows and what they should and do add up to.
func (f *traceFile) setLedger(opNS float64, rows []ledgerRow) {
	f.Ledger, f.LedgerOpNS, f.LedgerSumNS = rows, opNS, 0
	for _, row := range rows {
		f.LedgerSumNS += row.HostNS
	}
}

func (f *traceFile) add(replay string, t *tracer) {
	f.Replays[replay] = t.summaries()
	f.Trees[replay] = t.trees
}

// outDir is where traced runs write their span files: beside the
// benchmark's sources, whichever directory the command was started from.
var outDir = filepath.Join("bench", "out")

func (f *traceFile) write() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+f.Workload+".json"), b, 0o644)
}

// tracedStore decorates a pager.Store so that every call the B-tree makes
// into the storage layer — Begin, Page, AllocPage, OpEnd, Commit, Rollback
// — is a span. It forwards the optional interfaces the B-tree and the
// benchmark assert on (LeafCellCap, NoteSplit, Meta, Arena): dropping one
// would silently change the tree's shape, which the replay's exact
// simulated-time check would catch.
type tracedStore struct {
	pager.Store
	tr  *tracer
	txn tracedTxn // the store is single-writer: one transaction at a time
}

func (s *tracedStore) Begin() (pager.Txn, error) {
	s.tr.begin(spanTxBegin)
	tx, err := s.Store.Begin()
	s.tr.end()
	if err != nil {
		return nil, err
	}
	s.txn = tracedTxn{Txn: tx, tr: s.tr}
	return &s.txn, nil
}

func (s *tracedStore) LeafCellCap() int {
	if c, ok := s.Store.(interface{ LeafCellCap() int }); ok {
		return c.LeafCellCap()
	}
	return 0
}

func (s *tracedStore) NoteSplit() {
	if n, ok := s.Store.(interface{ NoteSplit() }); ok {
		n.NoteSplit()
	}
}

func (s *tracedStore) Meta() pager.Meta   { return s.Store.(interface{ Meta() pager.Meta }).Meta() }
func (s *tracedStore) Arena() *pmem.Arena { return arenaOf(s.Store) }

type tracedTxn struct {
	pager.Txn
	tr *tracer
}

func (x *tracedTxn) Page(no uint32) (*slotted.Page, error) {
	x.tr.begin(spanPage)
	p, err := x.Txn.Page(no)
	x.tr.end()
	return p, err
}

func (x *tracedTxn) AllocPage(typ byte) (uint32, *slotted.Page, error) {
	x.tr.begin(spanAlloc)
	no, p, err := x.Txn.AllocPage(typ)
	x.tr.end()
	return no, p, err
}

func (x *tracedTxn) OpEnd() {
	x.tr.begin(spanOpEnd)
	x.Txn.OpEnd()
	x.tr.end()
}

func (x *tracedTxn) Commit() error {
	x.tr.begin(spanCommit)
	err := x.Txn.Commit()
	x.tr.end()
	return err
}

func (x *tracedTxn) Rollback() {
	x.tr.begin(spanRollback)
	x.Txn.Rollback()
	x.tr.end()
}
