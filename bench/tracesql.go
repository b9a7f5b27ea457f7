package main

import (
	"fmt"

	"fasp"
	"fasp/internal/engine"
	"fasp/internal/sql"
)

// parseProbe times sql.Parse alone on each statement the stream draws,
// outside the op's timed call: the parser's cost, separated from the
// Exec that contains it.
type parseProbe struct {
	*sqlStream
	tr *tracer
}

func (p parseProbe) prepare() {
	p.sqlStream.prepare()
	p.tr.begin(spanParse)
	_, err := sql.Parse(string(p.stmt))
	p.tr.end()
	if err != nil {
		panic("bench: generated statement does not parse: " + err.Error())
	}
}

// bareSQLArm preloads an engine.DB over a bare store and returns the loop
// that drives the statement stream into it; the traced arm also times
// sql.Parse alone on every statement.
func bareSQLArm(a args, sz sqlSizing, traced bool) (*embeddedLoop, *tracer, error) {
	arm := newBareArm(traced)
	stream := newSQLStream(a.seed, sz)
	stream.target = engine.Open(arm.store)
	if err := stream.preload(nil); err != nil {
		return nil, nil, err
	}
	var step stepper = stream
	if traced {
		step = parseProbe{stream, arm.tr}
	}
	return arm.loop(step, sz.simOps), arm.tr, nil
}

// facadeSQLArm is the same for a fasp.DB under scheme, untraced.
func facadeSQLArm(a args, sz sqlSizing, scheme string) (*embeddedLoop, sqlSetup, error) {
	set, err := setupSQL(a.seed, sz, scheme, nil)
	if err != nil {
		return nil, set, err
	}
	return fixedLoop(set.stream, sz.simOps, func() simSnap { return snapDB(set.db) }), set, nil
}

// traceSQLInsert is the traced half of sql-insert: the identical statement
// stream replayed in lock step at the facade, on a bare engine without and
// with spans, and under the two reference schemes — plain FAST and NVWAL,
// the paper's baseline and the only place the wal and nvheap layers run.
func traceSQLInsert(r *result, a args, sz sqlSizing, main *sqlArm) error {
	bare, _, err := bareSQLArm(a, sz, false)
	if err != nil {
		return err
	}
	traced, tr, err := bareSQLArm(a, sz, true)
	if err != nil {
		return err
	}
	facade, _, err := facadeSQLArm(a, sz, fasp.SchemeFASTPlus)
	if err != nil {
		return err
	}
	fastArm, _, err := facadeSQLArm(a, sz, fasp.SchemeFAST)
	if err != nil {
		return err
	}
	nvwal, nvSet, err := facadeSQLArm(a, sz, fasp.SchemeNVWAL)
	if err != nil {
		return err
	}
	interleave(facade, bare, traced, fastArm, nvwal)
	for _, arm := range []*embeddedLoop{facade, bare, traced, fastArm, nvwal} {
		if arm.run.failed > 0 {
			return fmt.Errorf("traced replay: %d statements failed", arm.run.failed)
		}
	}
	for _, arm := range []*embeddedLoop{facade, bare, traced} {
		if arm.run.sim.simNS() != main.run.sim.simNS() || arm.run.sim.pm() != main.run.sim.pm() {
			return fmt.Errorf("a replay diverged from the measured run: %d vs %d simulated ns", arm.run.sim.simNS(), main.run.sim.simNS())
		}
	}

	// The paper's ordering is part of the oracle: on the same statements,
	// FAST+ must beat FAST must beat NVWAL in simulated time.
	plus, plain, base := main.run.sim.simNS(), fastArm.run.sim.simNS(), nvwal.run.sim.simNS()
	if !(plus < plain && plain < base) {
		r.Failed++
		r.Notes = append(r.Notes, fmt.Sprintf("paper ordering violated: FAST+ %d, FAST %d, NVWAL %d simulated ns", plus, plain, base))
	}

	ops := float64(sz.simOps)
	opNS := float64(facade.run.simWallNS) / ops
	bareNS := float64(bare.run.simWallNS) / ops
	tracedNS := float64(traced.run.simWallNS) / ops
	pagerNS := tr.totalPerOp(spanTxBegin) + tr.totalPerOp(spanPage) + tr.totalPerOp(spanAlloc) +
		tr.totalPerOp(spanOpEnd) + tr.totalPerOp(spanCommit) + tr.totalPerOp(spanRollback)
	parseNS := tr.totalPerOp(spanParse)
	r.layer("sql.parse_host_ns_stmt", parseNS)
	r.layer("engine.exec_host_ns_stmt", tr.totalPerOp(spanOp)-parseNS-pagerNS)
	r.layer("fasp.facade_host_ns_op", opNS-bareNS)
	r.layer("pager.page_opens_per_op", ratio(tr.agg[spanPage].n+tr.agg[spanAlloc].n, tr.agg[spanOp].n))
	r.layer("fast.commit_host_ns_op", tr.totalPerOp(spanCommit))
	r.layer("fast.fast_sim_us_per_op", float64(plain)/ops/1e3)
	r.layer("trace.overhead_share", 1-bareNS/tracedNS)

	nv := nvwal.run.sim
	r.layer("wal.nvwal_sim_us_per_op", float64(base)/ops/1e3)
	r.layer("wal.nvwal_flushes_per_write", ratio(nv.pm().FlushCalls, nv.writes))
	r.layer("wal.nvwal_host_ns_op", float64(nvwal.run.simWallNS)/ops)
	sim0 := nvSet.db.SimulatedNS()
	nvSet.db.Crash(fasp.CrashOptions{Seed: a.seed, EvictProb: 0.5})
	if err := nvSet.db.Reopen(); err != nil {
		return fmt.Errorf("nvwal recovery: %w", err)
	}
	r.layer("wal.nvwal_recover_sim_us", float64(nvSet.db.SimulatedNS()-sim0)/1e3)
	if bad, err := nvSet.stream.check(); err != nil || bad > 0 {
		r.Failed += bad
		r.Notes = append(r.Notes, fmt.Sprintf("nvwal arm: %d rows wrong after recovery (%v)", bad, err))
	}

	f := newTraceFile(r)
	f.add("bare-engine", tr)
	f.setLedger(opNS, append([]ledgerRow{
		{"fasp facade", opNS - bareNS, 0, "untraced facade arm − untraced bare-engine arm"},
		{"sql: Parse", parseNS, 0, "sql.Parse alone on each statement"},
		{"engine + btree + slotted", tr.selfPerOp(spanOp) - parseNS, tr.selfSimPerOp(spanOp), "Exec span − Parse − pager spans"},
	}, tr.pagerLedger()...))
	return f.write()
}
