package main

import (
	"fasp/internal/fast"
	"fasp/internal/htm"
	"fasp/internal/pager"
	"fasp/internal/phase"
	"fasp/internal/pmem"
)

// simSnap is everything the simulated machine and its store publish,
// read at one instant from outside: clock, phase totals, arena event
// counters, fences, and (FAST and FAST+ only) the scheme's own counters.
// Two snapshots bracket a region; every `sim` metric is a ratio of their
// differences.
type simSnap struct {
	now    int64
	phases map[string]int64
	pm     pmem.Stats
	fences int64
	fast   fast.Stats
	htm    htm.Stats
}

func snapStore(st pager.Store, arena *pmem.Arena) simSnap {
	sys := st.Sys()
	s := simSnap{now: sys.Clock().Now(), phases: sys.Clock().Phases(), pm: arena.Stats(), fences: sys.Fences()}
	if st, ok := st.(*fast.Store); ok {
		s.fast, s.htm = st.Stats(), st.HTMStats()
	}
	return s
}

// add sums two shards' snapshots (server workloads report per-shard sums).
func (s simSnap) add(o simSnap) simSnap {
	s.now += o.now
	for k, v := range o.phases {
		s.phases[k] += v // s.phases is this snapshot's own copy
	}
	s.pm = s.pm.Add(o.pm)
	s.fences += o.fences
	s.fast.Commits += o.fast.Commits
	s.fast.InPlaceCommits += o.fast.InPlaceCommits
	s.fast.LogCommits += o.fast.LogCommits
	s.fast.LoggedBytes += o.fast.LoggedBytes
	s.fast.Defrags += o.fast.Defrags
	s.fast.Splits += o.fast.Splits
	s.htm.Begins += o.htm.Begins
	s.htm.CapacityAborts += o.htm.CapacityAborts
	s.htm.ExplicitAborts += o.htm.ExplicitAborts
	s.htm.SpuriousAborts += o.htm.SpuriousAborts
	return s
}

// simDelta is a region of simulated execution with the op counts that ran
// in it: ops on the simulated machine, the writes among them, and the user
// bytes (key+value) those writes carried.
type simDelta struct {
	a, b      simSnap
	ops       int64
	writes    int64
	userBytes int64
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (d simDelta) simNS() int64              { return d.b.now - d.a.now }
func (d simDelta) pm() pmem.Stats            { return d.b.pm.Delta(d.a.pm) }
func (d simDelta) phaseNS(name string) int64 { return d.b.phases[name] - d.a.phases[name] }

// endToEnd emits the three sim end-to-end metrics that come from counters
// (space_amp needs the store's metadata and the model, see spaceAmp).
func (d simDelta) endToEnd(r *result) {
	pm := d.pm()
	r.e2e("sim_us_per_op", summary{Median: ratio(d.simNS(), d.ops) / 1e3})
	r.e2e("flushes_per_write", summary{Median: ratio(pm.FlushCalls, d.writes)})
	r.e2e("pm_write_amp", summary{Median: ratio(pm.LineWritebacks*pmem.CacheLineSize, d.userBytes)})
}

// layers emits the pmem, htm, btree/slotted and fast counter metrics.
func (d simDelta) layers(r *result) {
	pm := d.pm()
	r.layer("pmem.line_fills_per_op", ratio(pm.LineFills, d.ops))
	r.layer("pmem.cache_hit_share", ratio(pm.CacheHits, pm.CacheHits+pm.LineFills))
	r.layer("pmem.fences_per_write", ratio(d.b.fences-d.a.fences, d.writes))
	r.layer("pmem.writebacks_per_write", ratio(pm.LineWritebacks, d.writes))
	r.layer("pmem.word_stores_per_op", ratio(pm.WordStores, d.ops))

	hb := d.b.htm.Begins - d.a.htm.Begins
	aborts := d.b.htm.CapacityAborts - d.a.htm.CapacityAborts +
		d.b.htm.ExplicitAborts - d.a.htm.ExplicitAborts +
		d.b.htm.SpuriousAborts - d.a.htm.SpuriousAborts
	commits := d.b.fast.Commits - d.a.fast.Commits
	r.layer("htm.inplace_commit_share", ratio(d.b.fast.InPlaceCommits-d.a.fast.InPlaceCommits, commits))
	r.layer("htm.abort_share", ratio(aborts, hb))

	r.layer("btree.search_sim_ns_op", ratio(d.phaseNS(phase.Search), d.ops))
	r.layer("slotted.page_update_sim_ns_op", ratio(d.phaseNS(phase.PageUpdate), d.ops))
	r.layer("btree.splits_per_kop", 1e3*ratio(d.b.fast.Splits-d.a.fast.Splits, d.ops))
	r.layer("slotted.defrags_per_kop", 1e3*ratio(d.b.fast.Defrags-d.a.fast.Defrags, d.ops))

	r.layer("fast.commit_sim_ns_op", ratio(d.phaseNS(phase.Commit), d.ops))
	r.layer("fast.checkpoint_sim_ns_op", ratio(d.phaseNS(phase.Checkpoint), d.ops))
	r.layer("fast.log_commit_share", ratio(d.b.fast.LogCommits-d.a.fast.LogCommits, commits))
	r.layer("fast.log_bytes_per_write", ratio(d.b.fast.LoggedBytes-d.a.fast.LoggedBytes, d.writes))
}

// pageBytes is the page space the store has allocated: the high-water mark
// less the free-page stack, from its persisted metadata, in bytes.
func pageBytes(st pager.Store) int64 {
	m := st.(interface{ Meta() pager.Meta }).Meta()
	return (int64(m.NPages) - int64(m.FreeCount)) * int64(st.PageSize())
}
