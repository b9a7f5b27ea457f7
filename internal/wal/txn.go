package wal

import (
	"fmt"

	"fasp/internal/pager"
	"fasp/internal/phase"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// byteRange is a dirty region of a cached page.
type byteRange struct{ off, n int }

// dramMem is the slotted.Mem backend of a buffer-cached page: all reads and
// writes hit the DRAM image (charging DRAM latency); dirty byte ranges are
// recorded for differential logging.
type dramMem struct {
	tx     *Txn
	no     uint32
	base   int64
	dirty  []byteRange
	encBuf []byte      // header-encode scratch
	merged []byteRange // mergedRanges output, reused per transaction
}

// bind resets a pooled dramMem for a new page in this transaction.
func (m *dramMem) bind(tx *Txn, no uint32, base int64) {
	m.tx = tx
	m.no = no
	m.base = base
	m.dirty = m.dirty[:0]
	m.merged = m.merged[:0]
}

func (m *dramMem) PageSize() int { return m.tx.st.cfg.PageSize }

func (m *dramMem) Read(off, n int) []byte {
	return m.tx.st.dram.Read(m.base+int64(off), n)
}

// ReadInto is the allocation-free read path (slotted.ScratchMem); it issues
// the same DRAM Load as Read.
func (m *dramMem) ReadInto(off int, dst []byte) {
	m.tx.st.dram.Load(m.base+int64(off), dst)
}

// Compute charges n words of computation to the store's machine.
func (m *dramMem) Compute(n int64) { m.tx.st.sys.Compute(n) }

func (m *dramMem) Write(off int, src []byte) {
	m.tx.st.dram.Store(m.base+int64(off), src)
	m.markDirty(off, len(src))
}

func (m *dramMem) HeaderChanged(h *slotted.Header) {
	enc := h.EncodeInto(m.encBuf)
	m.encBuf = enc[:0]
	m.tx.st.dram.Store(m.base, enc)
	m.markDirty(0, len(enc))
}

func (m *dramMem) markDirty(off, n int) {
	if len(m.dirty) == 0 {
		m.tx.dirtyOrder = append(m.tx.dirtyOrder, m.no)
	}
	m.dirty = append(m.dirty, byteRange{off, n})
}

// mergedRanges coalesces the dirty ranges into sorted, disjoint spans —
// the product of NVWAL's differential-logging computation. The result
// (m.merged) stays valid until the page is rebound to a new transaction;
// the coverage bitmap is a store-level scratch shared by all pages.
func (m *dramMem) mergedRanges() []byteRange {
	if len(m.dirty) == 0 {
		return nil
	}
	ps := m.tx.st.cfg.PageSize
	covered := m.tx.st.coverBuf
	if len(covered) < ps {
		covered = make([]bool, ps)
		m.tx.st.coverBuf = covered
	}
	for i := range covered[:ps] {
		covered[i] = false
	}
	for _, r := range m.dirty {
		for i := r.off; i < r.off+r.n && i < ps; i++ {
			covered[i] = true
		}
	}
	out := m.merged[:0]
	i := 0
	for i < ps {
		if !covered[i] {
			i++
			continue
		}
		j := i
		for j < ps && covered[j] {
			j++
		}
		out = append(out, byteRange{i, j - i})
		i = j
	}
	m.merged = out
	return out
}

type txnPage struct {
	page *slotted.Page
	mem  *dramMem
}

// Txn is a baseline transaction over the DRAM buffer cache.
type Txn struct {
	st         *Store
	meta       pager.Meta
	metaDirty  bool
	pages      map[uint32]*txnPage
	dirtyOrder []uint32
	poppedFree []uint32
	freed      []uint32
	done       bool
}

var _ pager.Txn = (*Txn)(nil)

// Begin opens the single write transaction.
func (st *Store) Begin() (pager.Txn, error) {
	if st.open {
		return nil, pager.ErrTxnActive
	}
	st.open = true
	pages := st.rec.pages
	if pages == nil {
		pages = make(map[uint32]*txnPage)
	}
	st.rec.pages = nil
	return &Txn{
		st:         st,
		meta:       st.meta,
		pages:      pages,
		dirtyOrder: st.rec.dirtyOrder,
		poppedFree: st.rec.poppedFree,
		freed:      st.rec.freed,
	}, nil
}

// PageSize returns the page size.
func (tx *Txn) PageSize() int { return tx.st.cfg.PageSize }

// Root returns the working root page.
func (tx *Txn) Root() uint32 { return tx.meta.Root }

// SetRoot updates the working root pointer.
func (tx *Txn) SetRoot(no uint32) {
	tx.meta.Root = no
	tx.metaDirty = true
}

// Page opens page no through the buffer cache.
func (tx *Txn) Page(no uint32) (*slotted.Page, error) {
	if no == pager.MetaPageNo || no >= tx.meta.NPages {
		return nil, fmt.Errorf("%w: page %d out of range", pager.ErrCorrupt, no)
	}
	if tp, ok := tx.pages[no]; ok {
		return tp.page, nil
	}
	tx.st.ensureResident(no)
	tp := tx.st.takeHandle()
	tp.mem.bind(tx, no, tx.st.cfg.pageBase(no))
	if err := slotted.OpenInto(tp.page, tp.mem); err != nil {
		tx.st.rec.handles = append(tx.st.rec.handles, tp)
		return nil, err
	}
	p := tp.page
	// Volatile cache: freed cell space is reusable immediately (the PM
	// copy is untouched until commit/checkpoint).
	p.SetDeferFrees(false)
	tx.pages[no] = tp
	return p, nil
}

// AllocPage allocates and initialises a fresh page in the cache.
func (tx *Txn) AllocPage(typ byte) (uint32, *slotted.Page, error) {
	var no uint32
	if n := len(tx.st.freePages); n > 0 {
		no = tx.st.freePages[n-1]
		tx.st.freePages = tx.st.freePages[:n-1]
		tx.poppedFree = append(tx.poppedFree, no)
	} else {
		if int(tx.meta.NPages) >= tx.st.cfg.MaxPages {
			return 0, nil, pager.ErrFull
		}
		no = tx.meta.NPages
		tx.meta.NPages++
	}
	tx.metaDirty = true
	base := tx.st.cfg.pageBase(no)
	tx.st.dram.Zero(base, tx.st.cfg.PageSize)
	tx.st.resident[no] = true
	tp := tx.st.takeHandle()
	tp.mem.bind(tx, no, base)
	slotted.InitInto(tp.page, tp.mem, typ)
	p := tp.page
	p.SetDeferFrees(false)
	tx.pages[no] = tp
	return no, p, nil
}

// FreePage releases a page for reuse after commit.
func (tx *Txn) FreePage(no uint32) { tx.freed = append(tx.freed, no) }

// OpEnd is a no-op: the volatile cache needs no per-operation persistence.
func (tx *Txn) OpEnd() {}

// Defragged is recorded only for symmetry; baselines always log.
func (tx *Txn) Defragged() {}

// Relocate reports false: a page of the DRAM buffer cache has no in-place
// commit of its own, so defragmentation copies it.
func (tx *Txn) Relocate(uint32, int) bool { return false }

// Rollback abandons the transaction, invalidating dirty cache images so
// the next access re-reads the committed PM copy.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	for _, no := range tx.dirtyOrder {
		tx.st.resident[no] = false
	}
	// Pages popped from the volatile free list go back.
	tx.st.freePages = append(tx.st.freePages, tx.poppedFree...)
	tx.finish()
}

// singleLeafShape reports whether the transaction's write set has the
// FAST+ in-place-commit shape (one dirty leaf, cache-line header, no
// alloc/free/meta change) — the same in-memory check the fast package
// counts, so scheme comparisons see one signal. No arena traffic.
func (tx *Txn) singleLeafShape() bool {
	if tx.metaDirty || len(tx.poppedFree) != 0 || len(tx.freed) != 0 ||
		len(tx.dirtyOrder) != 1 {
		return false
	}
	tp, ok := tx.pages[tx.dirtyOrder[0]]
	if !ok || tp.page.Type() != slotted.TypeLeaf {
		return false
	}
	return tp.page.NCells() <= slotted.MaxInPlaceCells &&
		tp.page.Header().EncodedLen() <= pmem.CacheLineSize
}

// Commit dispatches to the scheme's protocol.
func (tx *Txn) Commit() error {
	if tx.done {
		return fmt.Errorf("wal: commit on finished transaction")
	}
	singleLeaf := tx.singleLeafShape()
	clock := tx.st.sys.Clock()
	var err error
	clock.InPhase(phase.Commit, func() {
		// Fold the working meta into the cached page 0 so it is logged and
		// checkpointed like any other page.
		if tx.metaDirty {
			tx.meta.TxID = tx.st.txid + 1
			tx.flushMetaToCache()
		}
		switch tx.st.cfg.Kind {
		case NVWAL:
			err = tx.commitNVWAL(false)
		case FullWAL:
			err = tx.commitNVWAL(true)
		default:
			err = tx.commitJournal()
		}
	})
	if err != nil {
		// A failed commit rolls the transaction back: nothing reached the
		// database pages (the journal/WAL write failed first), so dropping
		// the dirty cache images restores the committed state.
		tx.Rollback()
		return err
	}
	tx.st.txid++
	tx.st.meta = tx.meta
	tx.st.freePages = append(tx.st.freePages, tx.freed...)
	tx.st.stats.Commits++
	if len(tx.dirtyOrder) == 0 {
		tx.st.stats.ReadOnlyCommits++
	}
	if singleLeaf {
		tx.st.stats.SingleLeaf++
	}
	tx.finish()
	// Lazy checkpointing runs outside the measured commit path, as in the
	// paper's NVWAL comparison.
	if tx.st.cfg.Kind != Journal && tx.st.walBytes >= tx.st.cfg.CheckpointBytes {
		clock.InPhase("LazyCheckpoint", func() { tx.st.Checkpoint() })
	}
	return nil
}

// flushMetaToCache writes the working meta into the cached page 0 image and
// marks the range dirty, creating the page's dramMem if needed.
func (tx *Txn) flushMetaToCache() {
	tx.st.ensureResident(pager.MetaPageNo)
	tp, ok := tx.pages[pager.MetaPageNo]
	if !ok {
		tp = tx.st.takeHandle()
		tp.mem.bind(tx, pager.MetaPageNo, 0)
		tx.pages[pager.MetaPageNo] = tp
	}
	pager.WriteMeta(tx.st.dram, 0, tx.meta)
	tp.mem.markDirty(0, 32)
}

func (tx *Txn) finish() {
	tx.done = true
	st := tx.st
	st.open = false
	// Return the per-transaction resources to the store for the next Begin.
	// Map iteration order is irrelevant here: pooling touches no arena.
	for _, tp := range tx.pages {
		st.rec.handles = append(st.rec.handles, tp)
	}
	clear(tx.pages)
	st.rec.pages = tx.pages
	st.rec.dirtyOrder = tx.dirtyOrder[:0]
	st.rec.poppedFree = tx.poppedFree[:0]
	st.rec.freed = tx.freed[:0]
	tx.pages = nil
}
