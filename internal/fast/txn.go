package fast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

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
	// committed is the page's committed header, copied when the transaction
	// first changes it (after any lazy free-list repair rewrote it in PM);
	// empty for a page the transaction allocated (fresh). The log and the
	// checkpoint write only what differs from it.
	committed []byte
	fresh     bool
	logEnd    int   // the longest header prefix a frame of this page has logged
	hdrDirty  bool  // header changed since transaction start (and not installed in place)
	hdrStaged bool  // header staged into the log since last change (FAST)
	unit      int32 // the last unit that changed the header (Txn.MarkUnit)
	logged    bool  // changed by a unit that cannot commit in place
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

// Compute charges n words of computation to the store's machine.
func (m *pageMem) Compute(n int64) { m.tx.st.sys.Compute(n) }

func (m *pageMem) Write(off int, src []byte) {
	m.tx.st.arena.Store(m.base+int64(off), src)
	m.unflushed = append(m.unflushed, byteRange{off, len(src)})
}

// queueUnflushed moves the page's unflushed content ranges into lines.
func (m *pageMem) queueUnflushed(lines *pmem.LineSet) {
	for _, r := range m.unflushed {
		lines.Add(m.base+int64(r.off), r.n)
	}
	m.unflushed = m.unflushed[:0]
}

// copyCommitted copies the page's header out of PM, where nothing but a
// commit or a free-list repair writes it, without charging the simulated
// machine: these are bytes the page's open has read already.
func (m *pageMem) copyCommitted() {
	a := m.tx.st.arena
	var prefix [slotted.HeaderFixedSize]byte
	a.Peek(m.base, prefix[:])
	n := min(slotted.HeaderFixedSize+2*int(binary.LittleEndian.Uint16(prefix[2:])), m.PageSize())
	m.committed = slices.Grow(m.committed[:0], n)[:n]
	a.Peek(m.base, m.committed)
}

// changedEnd returns one past the last byte of the header image enc that
// differs from the committed header, where every byte past the committed
// header's end differs; 0 when enc is the committed header. It charges the
// comparison like NVWAL's differential logging.
func (m *pageMem) changedEnd(enc []byte) int {
	m.tx.st.sys.Compute(int64(len(enc)) / 8)
	for i := len(enc); i > 0; i-- {
		if i > len(m.committed) || enc[i-1] != m.committed[i-1] {
			return i
		}
	}
	return 0
}

func (m *pageMem) HeaderChanged(h *slotted.Header) {
	tx := m.tx
	if !m.hdrDirty {
		m.hdrDirty = true
		tx.dirtyOrder = append(tx.dirtyOrder, m.no)
		if !m.fresh {
			m.copyCommitted()
		}
	}
	if m.unit != tx.unit {
		m.unit = tx.unit
		tx.unitPages = append(tx.unitPages, m)
	}
	m.hdrStaged = false
}

// markClean undoes HeaderChanged for a page whose header PM holds already —
// a lazy free-list repair's — so that the commit neither logs, checkpoints
// nor installs it, and it counts as no page of the open unit. The next
// change copies the repaired header as the committed one.
func (m *pageMem) markClean() {
	tx := m.tx
	m.hdrDirty, m.unit = false, 0
	tx.dirtyOrder = slices.DeleteFunc(tx.dirtyOrder, func(no uint32) bool { return no == m.no })
	tx.unitPages = slices.DeleteFunc(tx.unitPages, func(p *pageMem) bool { return p == m })
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
	dirtyOrder []uint32
	allocated  []uint32
	freed      []uint32
	encBuf     []byte // scratch for header/meta-frame encodes
	defragged  bool
	done       bool

	// Atomic units (MarkUnit): unit numbers the open one, unitPages holds the
	// pages whose header it changed, and unitLogged is set once it did what
	// only the log can commit. freedPage keeps unitLogged set from the first
	// page free on.
	unit       int32
	unitPages  []*pageMem
	unitLogged bool
	freedPage  bool
}

// bind resets a pooled pageMem for a new page in this transaction.
func (m *pageMem) bind(tx *Txn, no uint32, base int64) {
	*m = pageMem{tx: tx, no: no, base: base, unflushed: m.unflushed[:0], committed: m.committed[:0]}
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
	tx.unitLogged = true
}

// Page opens (or returns the open handle of) page no.
//
// An interior page whose committed header the table holds decoded opens
// without decoding it: the two reads slotted.OpenInto would make, the
// header's fixed prefix and then the prefix with its offset array, are
// charged by Touch, and the offsets are copied from the table. Any other
// page is decoded from PM, and an interior one that needs no free-list
// check on this open leaves its header in the table.
func (tx *Txn) Page(no uint32) (*slotted.Page, error) {
	if no == pager.MetaPageNo || no >= tx.meta.NPages {
		return nil, fmt.Errorf("%w: page %d out of range", pager.ErrCorrupt, no)
	}
	st := tx.st
	e := st.entry(no)
	if e.tp != nil {
		return e.tp.page, nil
	}
	tp := st.takeHandle()
	base := st.cfg.pageBase(no)
	tp.mem.bind(tx, no, base)
	p := tp.page
	if e.cached {
		st.arena.Touch(base, slotted.HeaderFixedSize)
		st.arena.Touch(base, e.hdr.EncodedLen())
		slotted.OpenWithHeaderInto(p, tp.mem, &e.hdr)
	} else {
		if err := slotted.OpenInto(p, tp.mem); err != nil {
			st.rec.handles = append(st.rec.handles, tp)
			return nil, err
		}
		if p.Type() == slotted.TypeInterior && (!st.needFLCheck || st.flChecked[no]) {
			p.Header().CopyTo(&e.hdr)
			e.cached = true
		}
	}
	p.SetDeferFrees(true)
	e.tp = tp // before the repair, which dirties the page until markClean: dirtyOrder names only open pages
	st.opened = append(st.opened, no)
	st.maybeFixFreeList(no, tp)
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
	tx.unitLogged = true
	tx.allocated = append(tx.allocated, no)
	tp := tx.st.takeHandle()
	tp.mem.bind(tx, no, tx.st.cfg.pageBase(no))
	tp.mem.fresh = true
	slotted.InitInto(tp.page, tp.mem, typ)
	p := tp.page
	p.SetDeferFrees(true)
	tx.st.entry(no).tp = tp
	tx.st.opened = append(tx.st.opened, no)
	return no, p, nil
}

// FreePage releases a page. Its number enters the persistent free stack
// only after commit; a crash leaks it at worst.
//
// Freeing an emptied leaf drops its separator, which widens the key range of
// the leaf beside it: a later unit may then write there a key that only the
// logged unit's parent routes to it. So from here on every unit commits
// through the log.
func (tx *Txn) FreePage(no uint32) {
	tx.freed = append(tx.freed, no)
	tx.metaDirty = true
	tx.unitLogged = true
	tx.freedPage = true
}

// Defragged records that copy-on-write defragmentation happened, which
// disqualifies the FAST+ in-place commit for the open unit.
func (tx *Txn) Defragged() {
	tx.defragged = true
	tx.unitLogged = true
	tx.st.stats.Defrags++
}

// Relocate makes room for a size-byte cell on page no, a leaf whose
// allocation of it has just asked for defragmentation, by moving a few cells
// (slotted.Page.Relocate) instead of copying the page, and commits the move
// at once: a system transaction that changes no record and whose commit mark
// is the paper's in-place slot-header install. It reports whether it did;
// the caller copies the page instead when it did not.
//
// Only FAST+ has the install, and only a page whose header the transaction
// has not changed can take one: its committed header is then the working
// header minus the move. A commit in the middle of a FAST transaction would
// commit the frames it has staged as well.
//
// The commit runs in this order: the moved cells' lines are flushed and
// fenced, the frees are planned into the header, the header is written by one
// HTM line write, the frees are linked (ApplyPendingFrees must run even when
// every freed extent went back to the gap, or the next plan would see the
// handle planned already), and the page is marked clean, so that the rest of
// the transaction starts from the moved header as its committed one. If the
// install aborts, the handle goes back to the committed header, its free list
// is repaired as Rollback repairs it, and the caller copies the page.
func (tx *Txn) Relocate(no uint32, size int) bool {
	tp := tx.st.handle(no)
	if tx.st.cfg.Variant != InPlaceCommit || tp == nil || tp.mem.hdrDirty || !headerFitsLine(tp) {
		return false
	}
	p, st := tp.page, tx.st
	if _, _, ok := p.Relocate(size); !ok {
		return false
	}
	tp.mem.queueUnflushed(&st.lines)
	if st.lines.Flush(st.arena) {
		st.sys.Fence()
	}
	p.PlanPendingFrees()
	enc := p.Header().EncodeInto(tx.encBuf)
	tx.encBuf = enc[:0]
	st.dropHeader(no)
	if err := st.htm.AtomicLineWrite(st.arena, tp.mem.base, enc); err != nil {
		if slotted.OpenInto(p, tp.mem) == nil && p.CheckFreeList() != nil {
			st.repairFreeList(p, tp.mem)
		}
		p.SetDeferFrees(true)
		tp.mem.markClean()
		return false
	}
	p.ApplyPendingFrees()
	tp.mem.queueUnflushed(&st.lines)
	st.lines.Flush(st.arena)
	tp.mem.markClean()
	st.stats.Relocations++
	return true
}

// MarkUnit ends one atomic unit of the transaction (btree.Tx.MarkUnit): the
// ops since the previous mark must commit all or nothing, but nothing ties
// them to the transaction's other units. Commit closes the last unit, so a
// transaction never marked is one unit. A unit that changed more than one
// page, or allocated, freed, defragmented or moved the root, commits through
// the slot-header log, and so does every page it changed.
func (tx *Txn) MarkUnit() {
	if tx.unitLogged || len(tx.unitPages) > 1 {
		for _, m := range tx.unitPages {
			m.logged = true
		}
	}
	tx.unitPages = tx.unitPages[:0]
	tx.unitLogged = tx.freedPage
	tx.unit++
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
// A frame ends after the header's last byte that differs from the committed
// one: replay stores a frame over the page's prefix, and the bytes after it
// are already the committed ones. Under FAST a page may be staged once per
// operation, and replay applies its frames in order, so each frame reaches
// at least as far as every earlier one (logEnd): a later frame that stopped
// short would leave an earlier frame's bytes in place of committed ones. And
// the bytes a frame covers stay out of the gap, so that a later operation
// cannot carve a cell where replaying the frame would land.
func (tx *Txn) stageHeaders() {
	for _, no := range tx.dirtyOrder {
		tp := tx.st.tab[no].tp
		m := tp.mem
		if !m.hdrDirty || m.hdrStaged {
			continue
		}
		m.hdrStaged = true
		enc := tp.page.Header().EncodeInto(tx.encBuf)
		tx.encBuf = enc[:0]
		m.logEnd = max(m.logEnd, m.changedEnd(enc))
		hi := min(m.logEnd, len(enc))
		if hi == 0 {
			continue // the committed header: nothing to replay
		}
		tp.page.ReserveHeader(hi)
		if err := tx.st.log.AppendHeader(no, enc[:hi]); err != nil {
			// The log is sized by configuration; treat exhaustion as a
			// programming error rather than silently losing durability.
			panic(err)
		}
		tx.st.stats.LoggedBytes += int64(hi)
		tx.st.stats.TrimmedBytes += int64(len(enc) - hi)
		tx.st.stats.LoggedFrames++
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
	tp := tx.st.tab[tx.dirtyOrder[0]].tp
	return tp, headerFitsLine(tp)
}

// headerFitsLine reports whether a page's slot header can be installed by
// one HTM cache-line write: a leaf within the cell cap whose encoded header
// fits one line.
func headerFitsLine(tp *txnPage) bool {
	return tp.page.Type() == slotted.TypeLeaf &&
		tp.page.NCells() <= slotted.MaxInPlaceCells &&
		tp.page.Header().EncodedLen() <= pmem.CacheLineSize
}

// Commit runs the commit protocol and closes the transaction. A transaction
// that changed no header and no metadata has no commit mark to persist, so
// it commits by closing: no log write, checkpoint, truncate, flush or fence.
// An allocation or a free sets metaDirty, so it still commits; a Relocate
// has committed its move in place already.
func (tx *Txn) Commit() error {
	if tx.done {
		return fmt.Errorf("fast: commit on finished transaction")
	}
	if len(tx.dirtyOrder) == 0 && !tx.metaDirty {
		tx.finish()
		tx.st.stats.Commits++
		tx.st.stats.ReadOnlyCommits++
		return nil
	}
	// Every page the commit may write a slot header of, or free, loses its
	// decoded header now, whatever the commit's outcome.
	for _, no := range tx.dirtyOrder {
		tx.st.dropHeader(no)
	}
	for _, no := range tx.freed {
		tx.st.dropHeader(no)
	}
	clock := tx.st.sys.Clock()
	_, singleLeaf := tx.singleLeafShape()
	var err error
	clock.InPhase(phase.Commit, func() {
		// Safety: any record bytes not flushed by OpEnd must be durable
		// before the commit mark.
		tx.flushUnflushed()
		// Content and the free-list fields take their post-commit values
		// now, so they ride the commit image instead of a header write of
		// their own.
		for _, no := range tx.dirtyOrder {
			tx.st.tab[no].tp.page.PlanPendingFrees()
		}
		if tx.st.cfg.Variant == InPlaceCommit && tx.commitInPlace() {
			return
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

// flushUnflushed persists every content range written since the last call,
// flushing each line they touch once.
func (tx *Txn) flushUnflushed() {
	for _, no := range tx.dirtyOrder {
		tx.st.tab[no].tp.mem.queueUnflushed(&tx.st.lines)
	}
	if tx.st.lines.Flush(tx.st.arena) {
		tx.st.sys.Fence()
	}
}

// commitInPlace is the FAST+ path. Every leaf that only single-leaf units
// changed commits by one failure-atomic cache-line write installing its new
// slot header — that write is the commit mark of those units. It reports
// whether this committed the whole transaction; if not, what is left
// (multi-page units, and any leaf whose best-effort HTM write failed, as the
// paper's fallback handler prescribes) commits through the log after the
// installs. A logged unit may depend on an installed leaf (an append split
// reads its last key), never the reverse, which is why the installs come
// first.
func (tx *Txn) commitInPlace() bool {
	tx.MarkUnit()
	for _, no := range tx.freed {
		if tp := tx.st.handle(no); tp != nil {
			tp.mem.logged = true
		}
	}
	clock := tx.st.sys.Clock()
	installed := 0
	for _, no := range tx.dirtyOrder {
		tp := tx.st.tab[no].tp
		if tp.mem.logged || !headerFitsLine(tp) {
			continue
		}
		var err error
		clock.InPhase(phase.AtomicWrite, func() {
			enc := tp.page.Header().EncodeInto(tx.encBuf)
			tx.encBuf = enc[:0]
			err = tx.st.htm.AtomicLineWrite(tx.st.arena, tp.mem.base, enc)
		})
		if err != nil {
			continue
		}
		if tp.page.PendingFrees() > 0 {
			clock.InPhase(phase.FreeList, func() { tx.applyFrees(tp) })
		}
		tp.mem.hdrDirty = false // committed: the log skips it
		installed++
	}
	tx.st.stats.InPlaceInstalls += int64(installed)
	if installed == 0 || installed < len(tx.dirtyOrder) || tx.metaDirty || len(tx.freed) > 0 {
		return false
	}
	tx.st.stats.InPlaceCommits++
	return true
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
			tp := st.tab[no].tp
			if !tp.mem.hdrDirty {
				continue
			}
			enc := tp.page.Header().EncodeInto(tx.encBuf)
			tx.encBuf = enc[:0]
			tx.storeChangedLines(tp.mem, enc)
		}
		st.lines.Flush(st.arena)
		if tx.metaDirty {
			pager.WriteMeta(st.arena, 0, tx.meta)
		}
		st.sys.Fence()
		st.log.Truncate()
		// Post-commit bookkeeping: deferred frees become free blocks, and
		// freed pages enter the persistent free stack.
		clock.InPhase(phase.FreeList, func() {
			for _, no := range tx.dirtyOrder {
				tx.applyFrees(st.tab[no].tp)
			}
			if len(tx.freed) > 0 {
				count := tx.meta.FreeCount
				st.pushFreePages(&count, tx.freed)
				tx.meta.FreeCount = count
			}
		})
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
// pointing at stale cell bytes, which the lazy check finds and rebuilds. A
// block freed into an empty list is the sole block, which the header alone
// describes, and has nothing to write.
func (tx *Txn) applyFrees(tp *txnPage) {
	if tp.page.PendingFrees() == 0 {
		return
	}
	tp.page.ApplyPendingFrees()
	tp.mem.queueUnflushed(&tx.st.lines)
	tx.st.lines.Flush(tx.st.arena)
}

// storeChangedLines checkpoints the header image enc of page m: of the cache
// lines it spans, it stores and queues for flushing only those whose bytes
// differ from the committed header, charging the comparison like NVWAL's
// differential logging.
func (tx *Txn) storeChangedLines(m *pageMem, enc []byte) {
	tx.st.sys.Compute(int64(len(enc)) / 8)
	for lo := 0; lo < len(enc); {
		lineEnd := (m.base+int64(lo))&^(pmem.CacheLineSize-1) + pmem.CacheLineSize
		hi := min(int(lineEnd-m.base), len(enc))
		if hi > len(m.committed) || !bytes.Equal(enc[lo:hi], m.committed[lo:hi]) {
			tx.st.arena.Store(m.base+int64(lo), enc[lo:hi])
			tx.st.lines.Add(m.base+int64(lo), hi-lo)
		}
		lo = hi
	}
}

// Rollback abandons the transaction. Free lists of touched pages may have
// been consumed by allocations; rebuild them from the committed headers so
// the space is not lost.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	// dirtyOrder holds exactly the pages whose header changed, in first-touch
	// order.
	for _, no := range tx.dirtyOrder {
		tp := tx.st.tab[no].tp
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
	for _, no := range st.opened {
		tp := st.tab[no].tp
		st.tab[no].tp = nil
		c := tp.page.Counts()
		st.stats.Coalesces += int64(c.Coalesces)
		st.stats.GapAbsorbs += int64(c.GapAbsorbs)
		st.stats.EdgeAbsorbs += int64(c.EdgeAbsorbs)
		st.stats.HeadCarves += int64(c.HeadCarves)
		st.stats.BlockReads += int64(c.BlockReads)
		st.stats.LeafSearches += int64(c.LeafSearches)
		st.stats.LeafProbes += int64(c.LeafProbes)
		st.stats.InteriorSearches += int64(c.InteriorSearches)
		st.stats.InteriorProbes += int64(c.InteriorProbes)
		st.rec.handles = append(st.rec.handles, tp)
	}
	st.opened = st.opened[:0]
	st.rec.dirtyOrder = tx.dirtyOrder[:0]
	st.rec.allocated = tx.allocated[:0]
	st.rec.freed = tx.freed[:0]
	st.rec.unitPages = tx.unitPages[:0]
	st.rec.encBuf = tx.encBuf
}
