package main

import (
	"fmt"
	"time"

	"fasp"
	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/shard"
	"fasp/internal/wal"
)

// newBareStore builds the store fasp.Open / fasp.OpenKV would build for
// scheme with default Options, without the facade: the entry point one
// level below it. The replay checks that the two agree to the simulated
// nanosecond, so a default drifting apart from the facade's fails loudly.
func newBareStore(scheme string) pager.Store {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	const pageSize, maxPages = 4096, 16384
	switch scheme {
	case fasp.SchemeFASTPlus:
		return fast.Create(sys, fast.Config{PageSize: pageSize, MaxPages: maxPages, Variant: fast.InPlaceCommit})
	case fasp.SchemeFAST:
		return fast.Create(sys, fast.Config{PageSize: pageSize, MaxPages: maxPages, Variant: fast.SlotHeaderLogging})
	case fasp.SchemeNVWAL:
		return wal.Create(sys, wal.Config{PageSize: pageSize, MaxPages: maxPages, Kind: wal.NVWAL})
	}
	panic("bench: no bare store for scheme " + scheme)
}

// fixedLoop drives st for exactly simOps ops — the fixed simulated-clock
// window — with no wall-clock phase around it: what a replay arm runs.
func fixedLoop(st stepper, simOps int64, snap func() simSnap) *embeddedLoop {
	return newEmbeddedLoop(st, window{start: time.Now(), each: 1}, simOps, snap, func() {})
}

// spanStepper makes each op of a stepper a root span.
type spanStepper struct {
	stepper
	tr *tracer
}

func (s spanStepper) exec() error {
	s.tr.begin(spanOp)
	err := s.stepper.exec()
	s.tr.end()
	return err
}

// bareArm is a bare FAST+ store — the facade's own construction, one entry
// point down — for a replay arm to build a tree or an engine on. With
// traced set, store is decorated so that every pager call is a span; the
// tracer stays switched off until loop, so preloading records nothing.
type bareArm struct {
	inner pager.Store
	store pager.Store // what the arm builds on: inner, or its decoration
	tr    *tracer     // nil when untraced
}

func newBareArm(traced bool) bareArm {
	st := newBareStore(fasp.SchemeFASTPlus)
	if !traced {
		return bareArm{inner: st, store: st}
	}
	tr := newTracer(st.Sys().Clock(), arenaOf(st))
	tr.off = true
	return bareArm{inner: st, store: &tracedStore{Store: st, tr: tr}, tr: tr}
}

// loop returns the arm's fixed-window loop over st, each op a root span.
func (b bareArm) loop(st stepper, simOps int64) *embeddedLoop {
	if b.tr != nil {
		b.tr.off = false
	}
	arena := arenaOf(b.inner)
	return fixedLoop(spanStepper{st, b.tr}, simOps, func() simSnap { return snapStore(b.inner, arena) })
}

// bareKVArm preloads a btree.Tree over a bare store and returns the loop
// that drives the kv-write stream into it.
func bareKVArm(a args, sz kvSizing, traced bool) (*embeddedLoop, *tracer, error) {
	arm := newBareArm(traced)
	tree := btree.New(arm.store)
	churn := newKVChurn(a.seed, sz)
	churn.target = tree
	err := churn.preload(func(ops []shard.Op) []error {
		errs := make([]error, len(ops))
		shard.ApplyOps(tree, shard.DefaultMaxBatch, ops, errs)
		return errs
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	return arm.loop(churn, sz.simOps), arm.tr, nil
}

// facadeKVArm is the same for a fasp.KV opened with opts, untraced: the
// facade itself and the reference arms (plain FAST, metrics off).
func facadeKVArm(a args, sz kvSizing, opts fasp.Options) (*embeddedLoop, func(), error) {
	set, err := setupKV(a.seed, sz, opts, nil)
	if err != nil {
		return nil, nil, err
	}
	return fixedLoop(set.churn, sz.simOps, func() simSnap { return snapKV(set.kv) }), set.kv.Close, nil
}

// calibrateArena prices the emulator itself: it replays the measured mix
// of line accesses (hits and fills, loads and stores), flushes and fences
// on a bare arena of the store's size and returns host ns per event. Loads
// hit a region that fits the emulated cache or miss anywhere in the arena,
// in the measured proportion. Stores fill one line word by word and a
// flush writes that line back and moves on — as the commit protocols do,
// and as the emulator requires: a dirty PM line is pinned in its cache
// until flushed, so unflushed stores would only measure the pile-up.
func calibrateArena(seed int64, pm pmem.Stats, fences int64) float64 {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	const size, hot = 64 << 20, 1 << 20
	a := sys.NewArena("calibrate", size, pmem.PM)
	accesses := pm.LineFills + pm.CacheHits
	total := accesses + pm.FlushCalls + fences
	if total == 0 {
		return 0
	}
	r := newRNG(seed, 3)
	for off := int64(0); off < hot; off += pmem.CacheLineSize {
		a.LoadU64(off) // warm the hot region
	}
	const events = 2_000_000
	pAccess := float64(accesses) / float64(total)
	pFlush := pAccess + float64(pm.FlushCalls)/float64(total)
	pStore := ratio(pm.WordStores, accesses)
	pHit := ratio(pm.CacheHits, accesses)
	hotLine := func() int64 { return int64(r.intn(hot/pmem.CacheLineSize)) * pmem.CacheLineSize }
	line, word := hotLine(), int64(0)
	t0 := time.Now()
	for i := 0; i < events; i++ {
		u := r.float()
		switch {
		case u >= pFlush:
			sys.Fence()
		case u >= pAccess:
			a.FlushLine(line)
			line = hotLine()
		case r.float() < pStore:
			a.StoreU64(line+word%pmem.WordsPerLine*pmem.WordSize, uint64(i))
			word++
		case r.float() < pHit:
			a.LoadU64(hotLine())
		default:
			a.LoadU64(int64(r.intn(size/pmem.WordSize)) * pmem.WordSize)
		}
	}
	return float64(time.Since(t0)) / events
}

// traceKVWrite is the traced half of kv-write: the same op stream, same
// seed, replayed in lock step at the facade, one entry point down without
// and with spans, and through the reference arms, then reduced to the
// layer metrics and the layer ledger.
func traceKVWrite(r *result, a args, sz kvSizing, main *embeddedRun) error {
	bare, _, err := bareKVArm(a, sz, false)
	if err != nil {
		return err
	}
	traced, tr, err := bareKVArm(a, sz, true)
	if err != nil {
		return err
	}
	var facades [3]*embeddedLoop
	for i, opts := range []fasp.Options{{}, {DisableMetrics: true}, {Scheme: fasp.SchemeFAST}} {
		arm, closeKV, err := facadeKVArm(a, sz, opts)
		if err != nil {
			return err
		}
		defer closeKV()
		facades[i] = arm
	}
	facade, quiet, fastArm := facades[0].run, facades[1].run, facades[2].run
	interleave(facades[0], bare, traced, facades[1], facades[2])
	for _, arm := range []*embeddedRun{facade, bare.run, traced.run, quiet, fastArm} {
		if arm.failed > 0 {
			return fmt.Errorf("traced replay: %d ops failed", arm.failed)
		}
	}
	for _, arm := range []*embeddedRun{facade, bare.run, traced.run, quiet} {
		if arm.sim.simNS() != main.sim.simNS() || arm.sim.pm() != main.sim.pm() {
			return fmt.Errorf("a replay diverged from the measured run: %d vs %d simulated ns", arm.sim.simNS(), main.sim.simNS())
		}
	}

	ops := float64(sz.simOps)
	opNS := float64(facade.simWallNS) / ops // the untraced op span at the facade
	bareNS := float64(bare.run.simWallNS) / ops
	tracedNS := float64(traced.run.simWallNS) / ops
	r.layer("fasp.facade_host_ns_op", opNS-bareNS)
	r.layer("obsv.recorder_host_ns_op", opNS-float64(quiet.simWallNS)/ops)
	r.layer("btree.self_host_ns_op", tr.selfPerOp(spanOp))
	r.layer("pager.page_opens_per_op", ratio(tr.agg[spanPage].n+tr.agg[spanAlloc].n, tr.agg[spanOp].n))
	r.layer("fast.commit_host_ns_op", tr.totalPerOp(spanCommit))
	r.layer("fast.fast_sim_us_per_op", ratio(fastArm.sim.simNS(), fastArm.sim.ops)/1e3)
	r.layer("trace.overhead_share", 1-bareNS/tracedNS)

	pm := main.sim.pm()
	fences := main.sim.b.fences - main.sim.a.fences
	lineNS := calibrateArena(a.seed, pm, fences)
	lineOps := float64(pm.LineFills+pm.CacheHits+pm.FlushCalls+fences) / ops
	r.layer("pmem.host_ns_per_line_op", lineNS)
	r.layer("pmem.host_share", lineNS*lineOps/opNS)

	// The ledger: each layer's self time per op. The facade's is a
	// difference of two untraced runs; the rest are spans of the traced
	// replay (self = span − children). They are independent measurements,
	// so their sum closing on the untraced op span is a check, not an
	// identity: it fails when tracing overhead or noise exceeds the gap.
	f := newTraceFile(r)
	f.add("bare-tree", tr)
	f.setLedger(opNS, append([]ledgerRow{
		{"fasp facade + obsv", opNS - bareNS, 0, "untraced facade arm − untraced bare-tree arm"},
		{"btree + slotted", tr.selfPerOp(spanOp), tr.selfSimPerOp(spanOp), "op span − pager spans"},
	}, tr.pagerLedger()...))
	f.Ledger = append(f.Ledger, ledgerRow{"of which pmem emulation", lineNS * lineOps, ratio(main.sim.simNS(), main.sim.ops),
		"calibrated host ns per line event × events per op; all simulated time is charged by pmem"})
	return f.write()
}
