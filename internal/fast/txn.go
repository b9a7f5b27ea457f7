package fast

import (
	"fmt"

	"fasp/internal/pager"
	"fasp/internal/phase"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// byteRange is an unflushed content write within a page.
type byteRange struct{ off, n int }

// pageMem is the slotted.Mem backend of one page inside a transaction.
// Content writes go straight to PM (in-place, into free space); header
// changes stay in the page handle's decoded header until commit installs
// them. Unflushed content ranges are persisted at OpEnd, the paper's
// clflush(record) step.
type pageMem struct {
	tx        *Txn
	no        uint32
	base      int64
	unflushed []byteRange
	hdrDirty  bool // header changed since transaction start
	hdrStaged bool // header staged into the log since last change (FAST)
}

func (m *pageMem) PageSize() int { return m.tx.st.cfg.PageSize }

func (m *pageMem) Read(off, n int) []byte {
	return m.tx.st.arena.Read(m.base+int64(off), n)
}

// ReadInto is the allocation-free read path (slotted.ScratchMem); it issues
// the same arena Load as Read.
func (m *pageMem) ReadInto(off int, dst []byte) {
	m.tx.st.arena.Load(m.base+int64(off), dst)
}

func (m *pageMem) Write(off int, src []byte) {
	m.tx.st.arena.Store(m.base+int64(off), src)
	m.unflushed = append(m.unflushed, byteRange{off, len(src)})
}

func (m *pageMem) HeaderChanged(h *slotted.Header) {
	if !m.hdrDirty {
		m.hdrDirty = true
		m.tx.dirtyOrder = append(m.tx.dirtyOrder, m.no)
	}
	m.hdrStaged = false
}

// txnPage pairs a page handle with its backend.
type txnPage struct {
	page *slotted.Page
	mem  *pageMem
}

// Txn is a FAST/FAST+ transaction.
type Txn struct {
	st         *Store
	meta       pager.Meta
	metaDirty  bool
	pages      map[uint32]*txnPage
	dirtyOrder []uint32
	allocated  []uint32
	freed      []uint32
	encBuf     []byte // scratch for header/meta-frame encodes
	defragged  bool
	done       bool
}

// bind resets a pooled pageMem for a new page in this transaction.
func (m *pageMem) bind(tx *Txn, no uint32, base int64) {
	*m = pageMem{tx: tx, no: no, base: base, unflushed: m.unflushed[:0]}
}

var _ pager.Txn = (*Txn)(nil)

// PageSize returns the page size in bytes.
func (tx *Txn) PageSize() int { return tx.st.cfg.PageSize }

// Root returns the working root page number.
func (tx *Txn) Root() uint32 { return tx.meta.Root }

// SetRoot updates the working root pointer.
func (tx *Txn) SetRoot(no uint32) {
	tx.meta.Root = no
	tx.metaDirty = true
}

// Page opens (or returns the cached handle of) page no.
func (tx *Txn) Page(no uint32) (*slotted.Page, error) {
	if tp, ok := tx.pages[no]; ok {
		return tp.page, nil
	}
	if no == pager.MetaPageNo || no >= tx.meta.NPages {
		return nil, fmt.Errorf("%w: page %d out of range", pager.ErrCorrupt, no)
	}
	tp := tx.st.takeHandle()
	tp.mem.bind(tx, no, tx.st.cfg.pageBase(no))
	if err := slotted.OpenInto(tp.page, tp.mem); err != nil {
		tx.st.rec.handles = append(tx.st.rec.handles, tp)
		return nil, err
	}
	p := tp.page
	p.SetDeferFrees(true)
	tx.pages[no] = tp // before the repair dirties the page: dirtyOrder names only pages in the map
	tx.st.maybeFixFreeList(no, tp)
	return p, nil
}

// AllocPage allocates a page — from the free-page stack if possible,
// otherwise by bumping the high-water mark — and initialises it.
func (tx *Txn) AllocPage(typ byte) (uint32, *slotted.Page, error) {
	var no uint32
	if tx.meta.FreeCount > 0 {
		tx.meta.FreeCount--
		no = tx.st.stackEntry(tx.meta.FreeCount)
	} else {
		if int(tx.meta.NPages) >= tx.st.cfg.MaxPages {
			return 0, nil, pager.ErrFull
		}
		no = tx.meta.NPages
		tx.meta.NPages++
	}
	tx.metaDirty = true
	tx.allocated = append(tx.allocated, no)
	tp := tx.st.takeHandle()
	tp.mem.bind(tx, no, tx.st.cfg.pageBase(no))
	slotted.InitInto(tp.page, tp.mem, typ)
	p := tp.page
	p.SetDeferFrees(true)
	tx.pages[no] = tp
	return no, p, nil
}

// FreePage releases a page. Its number enters the persistent free stack
// only after commit; a crash leaks it at worst.
func (tx *Txn) FreePage(no uint32) {
	tx.freed = append(tx.freed, no)
	tx.metaDirty = true
}

// Defragged records that copy-on-write defragmentation happened, which
// disqualifies the FAST+ in-place commit for this transaction.
func (tx *Txn) Defragged() {
	tx.defragged = true
	tx.st.stats.Defrags++
}

// OpEnd finishes one logical B-tree operation: freshly written record
// bytes are flushed (clflush(record), charged to Page Update per Figure 7),
// and under FAST the updated slot headers are copied into the log with
// plain stores (the "update slot header" component — cheap, no flushes).
func (tx *Txn) OpEnd() {
	clock := tx.st.sys.Clock()
	clock.InPhase(phase.FlushRecord, tx.flushUnflushed)
	if tx.st.cfg.Variant == SlotHeaderLogging {
		clock.InPhase(phase.SlotHeader, tx.stageHeaders)
	}
}

// stageHeaders appends every changed-and-unstaged slot header to the log.
func (tx *Txn) stageHeaders() {
	for _, no := range tx.dirtyOrder {
		tp := tx.pages[no]
		if !tp.mem.hdrDirty || tp.mem.hdrStaged {
			continue
		}
		enc := tp.page.Header().EncodeInto(tx.encBuf)
		tx.encBuf = enc[:0]
		if err := tx.st.log.AppendHeader(no, enc); err != nil {
			// The log is sized by configuration; treat exhaustion as a
			// programming error rather than silently losing durability.
			panic(err)
		}
		tx.st.stats.LoggedBytes += int64(len(enc))
		tx.st.stats.LoggedFrames++
		tp.mem.hdrStaged = true
	}
}

// singleLeafShape reports whether the transaction's write set has the
// FAST+ in-place-commit shape (§4.2): exactly one dirty page, a leaf,
// header within one cache line, and no allocation, free, defragmentation
// or metadata change. The check reads only in-memory transaction state —
// no arena traffic — so counting it under FAST costs no simulated time.
func (tx *Txn) singleLeafShape() (*txnPage, bool) {
	if tx.defragged || tx.metaDirty ||
		len(tx.allocated) != 0 || len(tx.freed) != 0 || len(tx.dirtyOrder) != 1 {
		return nil, false
	}
	tp := tx.pages[tx.dirtyOrder[0]]
	if tp.page.Type() != slotted.TypeLeaf {
		return nil, false
	}
	if tp.page.NCells() > slotted.MaxInPlaceCells ||
		tp.page.Header().EncodedLen() > pmem.CacheLineSize {
		return nil, false
	}
	return tp, true
}

// inPlaceEligible reports whether the FAST+ single-page HTM commit applies:
// the single-leaf shape, under the in-place variant.
func (tx *Txn) inPlaceEligible() (*txnPage, bool) {
	if tx.st.cfg.Variant != InPlaceCommit {
		return nil, false
	}
	return tx.singleLeafShape()
}

// Commit runs the commit protocol and closes the transaction.
func (tx *Txn) Commit() error {
	if tx.done {
		return fmt.Errorf("fast: commit on finished transaction")
	}
	clock := tx.st.sys.Clock()
	_, singleLeaf := tx.singleLeafShape()
	var err error
	clock.InPhase(phase.Commit, func() {
		// Safety: any record bytes not flushed by OpEnd must be durable
		// before the commit mark.
		tx.flushUnflushed()
		// The free-list fields take their post-commit values now, so they
		// ride the commit image instead of a header write of their own.
		for _, no := range tx.dirtyOrder {
			tx.pages[no].page.PlanPendingFrees()
		}
		if tp, ok := tx.inPlaceEligible(); ok {
			err = tx.commitInPlace(tp)
			if err == nil {
				return
			}
			// Best-effort HTM failed; fall back to slot-header logging,
			// exactly as the paper's fallback handler prescribes.
		}
		err = tx.commitLogged()
	})
	if err != nil {
		// A failed commit (nothing reached the commit mark) rolls back:
		// the committed page images are untouched; consumed free-list
		// space is repaired like any abort.
		tx.Rollback()
		return err
	}
	tx.finish()
	tx.st.stats.Commits++
	if singleLeaf {
		tx.st.stats.SingleLeaf++
	}
	return nil
}

// flushUnflushed persists every content range written since the last call.
func (tx *Txn) flushUnflushed() {
	flushed := false
	for _, no := range tx.dirtyOrder {
		tp := tx.pages[no]
		for _, r := range tp.mem.unflushed {
			tx.st.arena.Flush(tp.mem.base+int64(r.off), r.n)
			flushed = true
		}
		tp.mem.unflushed = tp.mem.unflushed[:0]
	}
	if flushed {
		tx.st.sys.Fence()
	}
}

// commitInPlace is the FAST+ path: one failure-atomic cache-line write
// installs the new slot header, which is the commit mark.
func (tx *Txn) commitInPlace(tp *txnPage) error {
	clock := tx.st.sys.Clock()
	var err error
	clock.InPhase(phase.AtomicWrite, func() {
		enc := tp.page.Header().EncodeInto(tx.encBuf)
		tx.encBuf = enc[:0]
		err = tx.st.htm.AtomicLineWrite(tx.st.arena, tp.mem.base, enc)
	})
	if err != nil {
		return err
	}
	tx.applyFrees(tp)
	tx.st.stats.InPlaceCommits++
	return nil
}

// commitLogged is the FAST path (and the FAST+ fallback): commit through
// the slot-header log, then checkpoint eagerly.
func (tx *Txn) commitLogged() error {
	clock := tx.st.sys.Clock()
	st := tx.st

	// Ensure every dirty header is in the log. Under FAST most were staged
	// at OpEnd; under FAST+ fallback they are appended here.
	clock.InPhase(phase.LogFlush, func() {
		tx.stageHeaders()
		if tx.metaDirty {
			tx.meta.TxID++
			frame := pager.EncodeMetaFrameInto(tx.meta, tx.encBuf)
			tx.encBuf = frame[:0]
			if err := st.log.AppendHeader(pager.MetaPageNo, frame); err != nil {
				panic(err)
			}
			st.stats.LoggedBytes += int64(len(frame))
			st.stats.LoggedFrames++
		}
		st.log.Commit(tx.meta.TxID)
	})

	// Eager checkpointing (§3.3): install the committed headers so readers
	// never consult the log, then drop the log.
	clock.InPhase(phase.Checkpoint, func() {
		for _, no := range tx.dirtyOrder {
			tp := tx.pages[no]
			if !tp.mem.hdrDirty {
				continue
			}
			enc := tp.page.Header().EncodeInto(tx.encBuf)
			tx.encBuf = enc[:0]
			st.arena.Store(tp.mem.base, enc)
			st.arena.Flush(tp.mem.base, len(enc))
		}
		if tx.metaDirty {
			pager.WriteMeta(st.arena, 0, tx.meta)
		}
		st.sys.Fence()
		st.log.Truncate()
		// Post-commit bookkeeping: deferred frees become free blocks, and
		// freed pages enter the persistent free stack.
		for _, no := range tx.dirtyOrder {
			tx.applyFrees(tx.pages[no])
		}
		if len(tx.freed) > 0 {
			count := tx.meta.FreeCount
			st.pushFreePages(&count, tx.freed)
			tx.meta.FreeCount = count
		}
	})
	st.stats.LogCommits++
	st.meta = tx.meta
	return nil
}

// applyFrees writes the block headers of a page's deferred frees into the
// freed extents and flushes them (left dirty they would stay pinned in the
// cache overlay). This happens after the commit point, and the committed
// header already names the blocks (PlanPendingFrees): the free list is
// deliberately not failure-atomic (§4.3) — a crash in between leaves FreeLst
// pointing at stale cell bytes, which the lazy check finds and rebuilds.
func (tx *Txn) applyFrees(tp *txnPage) {
	if tp.page.PendingFrees() == 0 {
		return
	}
	tp.page.ApplyPendingFrees()
	for _, r := range tp.mem.unflushed {
		tx.st.arena.Flush(tp.mem.base+int64(r.off), r.n)
	}
	tp.mem.unflushed = tp.mem.unflushed[:0]
}

// Rollback abandons the transaction. Free lists of touched pages may have
// been consumed by allocations; rebuild them from the committed headers so
// the space is not lost.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	// dirtyOrder holds exactly the pages whose header changed, in first-touch
	// order — iterating it (not the pages map) keeps the arena traffic of the
	// free-list repair deterministic.
	for _, no := range tx.dirtyOrder {
		tp := tx.pages[no]
		isAllocated := false
		for _, a := range tx.allocated {
			if a == no {
				isAllocated = true
				break
			}
		}
		if isAllocated {
			continue // never committed; nothing to restore
		}
		// Reopen the committed header and repair the free list if in-page
		// free blocks were consumed or written during the transaction.
		mem := &pageMem{tx: tx, no: no, base: tp.mem.base}
		if p, err := slotted.Open(mem); err == nil && p.CheckFreeList() != nil {
			tx.st.repairFreeList(p, mem)
		}
	}
	tx.finish()
}

func (tx *Txn) finish() {
	tx.done = true
	st := tx.st
	st.open = false
	// Return the per-transaction resources to the store for the next Begin.
	// Map iteration order is irrelevant here: pooling touches no arena.
	for _, tp := range tx.pages {
		c, g := tp.page.CoalesceCounts()
		st.stats.Coalesces += int64(c)
		st.stats.GapAbsorbs += int64(g)
		st.rec.handles = append(st.rec.handles, tp)
	}
	clear(tx.pages)
	st.rec.pages = tx.pages
	st.rec.dirtyOrder = tx.dirtyOrder[:0]
	st.rec.allocated = tx.allocated[:0]
	st.rec.freed = tx.freed[:0]
	st.rec.encBuf = tx.encBuf
	tx.pages = nil
}
