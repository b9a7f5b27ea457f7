package shard

import (
	"strings"

	"fasp/internal/btree"
	"fasp/internal/obsv"
	"fasp/internal/pager"
	"fasp/internal/tune"
)

// Adaptive tuning: each shard owns a tune.Controller fed one Sample per
// committed group commit (tuneObserve, called from applyLocked under the
// shard lock inside the write gate). When a sample closes a decision window
// the shard acts on the decision at that point — which is exactly the
// quiesced moment the migration protocol requires: the writer is between
// group commits, the lock is held, and beginMutate has drained every
// optimistic reader.

// Bounds on one proactive defragmentation pass.
const (
	// maxHotLeaves caps the hot-leaf handles one FragScan collects.
	maxHotLeaves = 32
	// defragPerSlot caps the leaves rewritten in one idle slot, so a pass
	// never delays the next group commit by more than one small txn.
	defragPerSlot = 8
)

// canonSchemeName lowers a store's Name() ("FAST+", "WAL", …) to the
// facade's canonical scheme strings, which are what tune.Controller and the
// persisted scheme tag speak.
func canonSchemeName(n string) string { return strings.ToLower(n) }

// tuneObserve feeds one committed batch to the controller and, when the
// sample closes a decision window, acts on the decision: retarget the live
// batch bound, measure fragmentation and run a proactive defrag pass, and
// perform a proposed scheme migration. Called under s.mu inside the write
// gate, between group commits.
func (s *state) tuneObserve(nOps int, batches0 int64, c0 obsv.Counters, sim0 int64) {
	d := s.counters().Sub(c0)
	dec, closed := s.ctl.Observe(tune.Sample{
		Ops:        nOps,
		Commits:    s.batches - batches0,
		SingleLeaf: d.SingleLeaf,
		HTMCommit:  d.HTMCommit,
		HTMAbort:   d.HTMAbort,
		MailDepth:  len(s.mail),
		Backoffs:   s.backoffs.Swap(0),
		SimNS:      s.be.Sys.Clock().Now() - sim0,
	})
	if !closed {
		return
	}
	s.liveBatch.Store(int64(dec.MaxBatch))
	if s.defragTh > 0 {
		s.measureFrag(dec)
		s.defragPass(dec)
	}
	if dec.Migrate != "" && s.migrate != nil {
		s.migrateTo(dec)
	}
}

// measureFrag scans the committed tree's leaf fragmentation through the
// snapshot reader — pure Peeks, no clock advance, no crash points — and
// queues the over-threshold leaves for the next defrag pass. Callers hold
// s.mu inside the write gate (the store is quiescent).
func (s *state) measureFrag(dec *tune.Decision) {
	sr, ok := s.be.Store.(pager.SnapshotReader)
	if !ok {
		return
	}
	v := viewPool.Get().(*btree.View)
	v.Reset(sr, s.be.Store.PageSize())
	rep, err := v.FragScan(s.defragTh, maxHotLeaves)
	v.Release()
	viewPool.Put(v)
	if err != nil {
		return
	}
	s.frag = rep.Ratio()
	dec.FragPct = int(s.frag * 100)
	if s.frag >= s.defragTh && len(rep.HotKeys) > 0 {
		s.hotKeys = append(s.hotKeys[:0], rep.HotKeys...)
	} else {
		s.hotKeys = s.hotKeys[:0]
	}
}

// defragPass rewrites up to defragPerSlot pending hot leaves copy-on-write
// in one transaction, containing crash injection and panics the same way a
// batch apply does. dec (when non-nil) records the page count. Callers hold
// s.mu inside the write gate.
func (s *state) defragPass(dec *tune.Decision) {
	if len(s.hotKeys) == 0 {
		return
	}
	var n int
	var derr error
	if s.contain(func() {
		n, derr = s.tree.DefragLeaves(s.hotKeys, defragPerSlot)
	}) != nil || derr != nil {
		return
	}
	if dec != nil {
		dec.DefragPages += n
	}
	if n >= len(s.hotKeys) {
		s.hotKeys = s.hotKeys[:0]
	} else {
		s.hotKeys = s.hotKeys[:copy(s.hotKeys, s.hotKeys[n:])]
	}
}

// maybeIdleDefrag runs one defrag pass when the shard has pending hot
// leaves and its mailbox is empty — the idle group-commit slot. The writer
// loop calls it after a drain that left the mailbox dry, a one-shard Do
// after its own commit (which may race Close, hence refuseWrite).
func (s *state) maybeIdleDefrag() {
	if s.ctl == nil || s.defragTh <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refuseWrite() != nil || len(s.hotKeys) == 0 {
		return
	}
	s.beginMutate()
	defer s.endMutate()
	s.defragPass(nil)
}

// migrateTo performs a proposed scheme migration through the facade's
// closure: checkpoint the old scheme to a clean page image, build the
// target image, flip the persisted scheme tag, attach the new store. A
// simulated power failure inside the protocol poisons the shard exactly
// like one inside a batch — recovery re-resolves the tag and reattaches
// whichever image it names. Callers hold s.mu inside the write gate.
func (s *state) migrateTo(dec *tune.Decision) {
	var ns pager.Store
	var merr error
	if s.contain(func() { ns, merr = s.migrate(dec.Migrate) }) != nil {
		return
	}
	if merr != nil {
		// Clean refusal (unsupported target, full machine): the old store
		// is intact and keeps serving; the controller proposal stands and
		// may be retried next window.
		return
	}
	s.be.Store = ns
	s.tree = btree.New(ns)
	s.publishReadState()
	s.ctl.SetScheme(dec.Migrate)
	dec.Migrated = true
}

// ShardScheme returns shard i's live commit-scheme name in the facade's
// canonical lowercase form; under adaptive tuning it may differ from the
// configured scheme.
func (e *Engine) ShardScheme(i int) string {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return canonSchemeName(s.be.Store.Name())
}

// ShardMaxBatch returns shard i's live group-commit drain bound.
func (e *Engine) ShardMaxBatch(i int) int { return e.shards[i].maxBatchNow() }

// ShardFragmentation returns shard i's last measured leaf-fragmentation
// ratio, -1 before any measurement.
func (e *Engine) ShardFragmentation(i int) float64 {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frag
}

// ShardTrace returns a copy of shard i's controller decision trace, nil
// when tuning is off.
func (e *Engine) ShardTrace(i int) []tune.Decision {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctl == nil {
		return nil
	}
	return append([]tune.Decision(nil), s.ctl.Trace()...)
}
