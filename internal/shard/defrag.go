package shard

// Proactive defragmentation: with Config.DefragThreshold > 0, every
// defragWindow-th write round a shard applies without a fault (applyLocked,
// under the shard lock inside the write gate) measures the committed tree's
// leaf fragmentation and rewrites a first few over-threshold leaves; the
// rest are rewritten in idle group-commit slots. Both run between group
// commits, with the writer quiesced and every reader kept out by
// beginMutate.

// Bounds on proactive defragmentation.
const (
	// defragWindow is the number of fault-free write rounds between two
	// fragmentation measurements.
	defragWindow = 32
	// maxHotLeaves caps the hot-leaf handles one FragScan collects.
	maxHotLeaves = 32
	// defragPerSlot caps the leaves rewritten in one idle slot, so a pass
	// never delays the next group commit by more than one small txn.
	defragPerSlot = 8
)

// defragTick counts one fault-free write round and, every defragWindow-th,
// measures fragmentation and runs a defrag pass. Callers hold s.mu inside
// the write gate, between group commits.
func (s *state) defragTick() {
	s.sinceScan++
	if s.sinceScan < defragWindow {
		return
	}
	s.sinceScan = 0
	s.measureFrag()
	s.defragPass()
}

// measureFrag scans the committed tree's leaf fragmentation through a
// View — pure Peeks, no clock advance, no crash points — and queues the
// over-threshold leaves for the next defrag pass. Callers hold s.mu inside
// the write gate (the store is quiescent), so the view is bound without
// the read gate, which is not reentrant.
func (s *state) measureFrag() {
	v := bindView(s.be.Store)
	rep, err := v.FragScan(s.defragTh, maxHotLeaves)
	putView(v)
	if err != nil {
		return
	}
	s.frag = rep.Ratio()
	if s.frag >= s.defragTh && len(rep.HotKeys) > 0 {
		s.hotKeys = append(s.hotKeys[:0], rep.HotKeys...)
	} else {
		s.hotKeys = s.hotKeys[:0]
	}
}

// defragPass rewrites up to defragPerSlot pending hot leaves copy-on-write
// in one transaction, containing crash injection and panics the same way a
// batch apply does. Callers hold s.mu inside the write gate.
func (s *state) defragPass() {
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
	s.defragged += int64(n)
	if n >= len(s.hotKeys) {
		s.hotKeys = s.hotKeys[:0]
	} else {
		s.hotKeys = s.hotKeys[:copy(s.hotKeys, s.hotKeys[n:])]
	}
}

// maybeIdleDefrag runs one defrag pass when the shard has pending hot
// leaves and its mailbox is empty — the idle group-commit slot. The writer
// loop calls it after a drain that left the mailbox dry, Do after its own
// commit (which may race Close, hence refuseWrite).
func (s *state) maybeIdleDefrag() {
	if s.defragTh <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refuseWrite() != nil || len(s.hotKeys) == 0 {
		return
	}
	s.beginMutate()
	defer s.endMutate()
	s.defragPass()
}

// ShardFragmentation returns shard i's last measured leaf-fragmentation
// ratio, -1 before any measurement.
func (e *Engine) ShardFragmentation(i int) float64 {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frag
}
