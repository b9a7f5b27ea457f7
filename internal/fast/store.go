// Package fast implements the paper's contribution: a PM-only persistent
// database buffer cache with failure-atomic slotted paging.
//
// Two variants are provided (§4):
//
//   - FAST (failure-atomic slot-header logging): every transaction commits
//     through the slot-header log — records are written in place into page
//     free space and flushed, updated slot headers go to a small PM redo
//     log, an 8-byte commit mark commits the transaction, and the headers
//     are eagerly checkpointed into their pages.
//   - FAST+ (FAST with in-place commit): a transaction that dirtied exactly
//     one leaf page — no split, no defragmentation, no page allocation —
//     skips the log entirely and commits by installing the new slot header
//     with one HTM-backed failure-atomic cache-line write.
//
// A caller that batches independent requests into one transaction (the
// shard writer's group commit) marks where each ends (Txn.MarkUnit). FAST+
// then makes the same choice per unit instead of per transaction: every leaf
// that only single-leaf units changed is installed in place, and only the
// other pages share one slot-header log commit. A crash may then keep any
// subset of the transaction's units, each whole.
//
// PM layout of a store:
//
//	[ page 0: meta ][ pages 1..MaxPages ) [ free-page stack ][ slot-header log ]
//
// Free pages are tracked by a persistent stack rather than a chain threaded
// through the pages themselves: a page popped from the stack can be
// overwritten freely before the transaction commits, because the committed
// stack count still records it as free.
package fast

import (
	"errors"
	"fmt"

	"fasp/internal/htm"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/shlog"
	"fasp/internal/slotted"
)

// Variant selects the commit scheme.
type Variant int

const (
	// SlotHeaderLogging is FAST: every commit goes through the log.
	SlotHeaderLogging Variant = iota
	// InPlaceCommit is FAST+: single-leaf transactions commit via an HTM
	// failure-atomic cache-line write; everything else falls back to FAST.
	InPlaceCommit
)

func (v Variant) String() string {
	if v == InPlaceCommit {
		return "FAST+"
	}
	return "FAST"
}

// Config sizes a store.
type Config struct {
	PageSize int   // bytes per page (default 4096)
	MaxPages int   // page-space capacity including page 0 (default 4096)
	LogBytes int64 // slot-header log region size (default 256 KiB)
	Variant  Variant
	HTM      htm.Config // used by FAST+ (zero: htm.NewManager's defaults)
}

func (c *Config) fill() {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.MaxPages == 0 {
		c.MaxPages = 4096
	}
	if c.LogBytes == 0 {
		c.LogBytes = 256 << 10
	}
}

// Stats counts scheme-level events for the experiment harness.
type Stats struct {
	Commits int64
	// InPlaceCommits counts transactions that committed by in-place slot
	// header installs alone, LogCommits those that committed through the
	// log, and ReadOnlyCommits those that changed nothing and so committed
	// by closing. The three sum to Commits.
	InPlaceCommits  int64
	LogCommits      int64
	ReadOnlyCommits int64
	// InPlaceInstalls counts slot headers installed by an HTM cache-line
	// write: one per in-place commit, and one per in-place leaf of a
	// unit-marked transaction, whether or not the rest of it was logged.
	InPlaceInstalls int64
	// SingleLeaf counts commits whose write set was exactly one leaf page
	// with a cache-line header — the FAST+ in-place-eligible shape. It is
	// counted under both variants (shape only, ignoring Variant), so the
	// single_leaf event metric shows FAST+'s eligible share while running FAST.
	SingleLeaf    int64
	LoggedBytes   int64 // slot-header bytes written to the log
	TrimmedBytes  int64 // header bytes past a frame's end, left out because they are the committed ones
	LoggedFrames  int64
	Defrags       int64 // pages copied to defragment them
	Relocations   int64 // FAST+ leaves given room by moving cells instead (Txn.Relocate)
	Coalesces     int64 // failed page allocations satisfied after coalescing the free list
	GapAbsorbs    int64 // coalescing passes that returned a free run to the gap
	EdgeAbsorbs   int64 // freed extents at the content pointer returned to the gap at commit
	HeadCarves    int64 // cells carved from the front of a free-list head
	BlockReads    int64 // free-block headers read from a page
	Splits        int64 // updated by the B-tree layer via NoteSplit
	FreeListFixes int64

	// LeafSearches counts in-page searches of a leaf and LeafProbes the cell
	// keys they read; InteriorSearches and InteriorProbes the same for
	// interior pages.
	LeafSearches, LeafProbes         int64
	InteriorSearches, InteriorProbes int64
}

// Store is a FAST/FAST+ database in persistent memory.
type Store struct {
	sys   *pmem.System
	arena *pmem.Arena
	cfg   Config
	htm   *htm.Manager
	log   *shlog.Log
	meta  pager.Meta
	open  bool // a transaction is active
	stats Stats
	lines pmem.LineSet // lines queued for one flush each

	// Post-crash lazy free-list validation (§4.3): pages are checked on
	// first use and rebuilt if the free list disagrees with the header.
	needFLCheck bool
	flChecked   map[uint32]bool

	// tab is the direct page table, indexed by page number and grown to
	// cover every page a transaction opens (entry); opened lists the pages
	// the open transaction holds a handle of, in open order.
	tab    []pageEntry
	opened []uint32

	// Recycled single-writer transaction resources: the store has at most
	// one live transaction, so its slices, scratch buffer, and page handles
	// are handed from finished transaction to next Begin instead of being
	// reallocated per transaction.
	rec struct {
		dirtyOrder []uint32
		allocated  []uint32
		freed      []uint32
		unitPages  []*pageMem
		encBuf     []byte
		handles    []*txnPage
	}
}

// pageEntry is one page number's slot in the direct page table. Both fields
// are host-only: neither is persistent, and neither changes what a page's
// open charges the simulated machine.
type pageEntry struct {
	// tp is the open transaction's handle of the page; nil if it has none.
	tp *txnPage
	// hdr, when cached is set, is the page's committed slot header, decoded:
	// interior pages only, which nearly every descent opens and few
	// transactions change. It is kept from the first open after the page's
	// post-recovery free-list check until a write to the page's slot header
	// in PM may make it stale: any commit that dirties or frees the page, a
	// free-list repair, an in-place relocation, and Recover all drop it.
	hdr    slotted.Header
	cached bool
}

// entry returns page no's table entry, growing the table to reach it.
func (st *Store) entry(no uint32) *pageEntry {
	if n := int(no) + 1; n > len(st.tab) {
		st.tab = append(st.tab, make([]pageEntry, n-len(st.tab))...)
	}
	return &st.tab[no]
}

// handle returns the open transaction's handle of page no, or nil.
func (st *Store) handle(no uint32) *txnPage {
	if int(no) < len(st.tab) {
		return st.tab[no].tp
	}
	return nil
}

// dropHeader forgets page no's decoded committed header, ahead of a write
// to its slot header in PM.
func (st *Store) dropHeader(no uint32) {
	if int(no) < len(st.tab) {
		st.tab[no].cached = false
	}
}

// dropHeaders forgets every decoded committed header.
func (st *Store) dropHeaders() {
	for i := range st.tab {
		st.tab[i].cached = false
	}
}

// takeHandle pops a pooled page handle (or makes a fresh one).
func (st *Store) takeHandle() *txnPage {
	if n := len(st.rec.handles); n > 0 {
		tp := st.rec.handles[n-1]
		st.rec.handles = st.rec.handles[:n-1]
		return tp
	}
	return &txnPage{page: new(slotted.Page), mem: new(pageMem)}
}

func (c Config) pagesBytes() int64 { return int64(c.PageSize) * int64(c.MaxPages) }
func (c Config) stackBase() int64  { return c.pagesBytes() }
func (c Config) stackBytes() int64 { return 4 * int64(c.MaxPages) }
func (c Config) logBase() int64    { return c.stackBase() + c.stackBytes() }
func (c Config) arenaBytes() int64 { return c.logBase() + c.LogBytes }
func (c Config) pageBase(no uint32) int64 {
	return int64(no) * int64(c.PageSize)
}

// Create formats a new store on a fresh PM arena of sys.
func Create(sys *pmem.System, cfg Config) *Store {
	cfg.fill()
	arena := sys.NewArena("fast-db", cfg.arenaBytes(), pmem.PM)
	st := &Store{sys: sys, arena: arena, cfg: cfg, flChecked: map[uint32]bool{}}
	st.htm = htm.NewManager(sys, cfg.HTM)
	st.log = shlog.Format(arena, cfg.logBase(), cfg.LogBytes)
	st.meta = pager.Meta{PageSize: uint32(cfg.PageSize), NPages: 1}
	pager.WriteMeta(arena, 0, st.meta)
	return st
}

// Attach reopens a store on an existing arena (e.g. after a simulated
// crash). Call Recover before starting transactions.
func Attach(arena *pmem.Arena, cfg Config) (*Store, error) {
	cfg.fill()
	meta, err := pager.ReadMeta(arena, 0)
	if err != nil {
		return nil, err
	}
	if int(meta.PageSize) != cfg.PageSize {
		return nil, fmt.Errorf("%w: page size mismatch (%d vs %d)", pager.ErrCorrupt, meta.PageSize, cfg.PageSize)
	}
	st := &Store{sys: arena.Sys(), arena: arena, cfg: cfg, meta: meta, flChecked: map[uint32]bool{}}
	st.htm = htm.NewManager(st.sys, cfg.HTM)
	st.log, err = shlog.Open(arena, cfg.logBase(), cfg.LogBytes)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Name returns the scheme name ("FAST" or "FAST+").
func (st *Store) Name() string { return st.cfg.Variant.String() }

// PageSize returns the page size in bytes.
func (st *Store) PageSize() int { return st.cfg.PageSize }

// Sys returns the simulated machine.
func (st *Store) Sys() *pmem.System { return st.sys }

// Arena exposes the backing arena (experiments read its counters).
func (st *Store) Arena() *pmem.Arena { return st.arena }

// Meta returns the last committed metadata.
func (st *Store) Meta() pager.Meta { return st.meta }

// Stats returns scheme-level counters.
func (st *Store) Stats() Stats { return st.stats }

// NoteSplit lets the B-tree layer record a page split for the statistics.
func (st *Store) NoteSplit() { st.stats.Splits++ }

// HTMStats exposes the HTM manager's transaction-outcome counters.
func (st *Store) HTMStats() htm.Stats { return st.htm.Stats() }

// LeafCellCap bounds leaf-page fanout under FAST+ (§4.2): the leaf slot
// header must fit one cache line so the HTM in-place commit applies, so
// leaves split once the record-offset array reaches the hardware limit
// ("the slot-header of the B-tree leaf page can hold a maximum of 28
// records"; 25 here, as our 14-byte header prefix carries the type, flags,
// cell count, content start, free-byte count, free-list head and a 4-byte
// aux word, which is 0 on a leaf — see the slotted package). FAST's headers
// are unbounded and return 0 (no cap).
func (st *Store) LeafCellCap() int {
	if st.cfg.Variant == InPlaceCommit {
		return slotted.MaxInPlaceCells
	}
	return 0
}

// Recover completes or discards the transaction that was in flight when the
// previous incarnation crashed (§4.4). If the slot-header log holds a whole
// commit — a length whose checksum matches its frames — checkpointing is
// replayed (idempotently); a torn commit is truncated, and an empty log
// ignored. Free lists are validated lazily afterwards.
//
// Invariant: a logged header and the one Commit checkpointed over the same
// page differ at most in Flags, Content, Free and FreeLst (FAST stages
// headers at OpEnd, before Commit plans the deferred frees into them). A
// frame may end before its header does; the bytes after it are the committed
// header's, and the checkpoint writes only lines that differ from those, so
// PM holds them either way. Replaying the logged image over the checkpointed
// one therefore changes no record, and either image's free list is at worst
// one the lazy check rejects and rebuilds — a logged sole free block, whose
// size is Free and so still counts the frees planned after the frame, runs
// over a live cell, which the check catches.
func (st *Store) Recover() error {
	st.dropHeaders()
	frames, torn := st.log.Frames()
	if torn {
		// A commit that never completed was never acknowledged. Clear its
		// length first: left set, it would commit a later transaction's
		// uncommitted frames once they reached PM byte-identical to its own.
		st.log.Truncate()
	}
	if frames != nil {
		for _, f := range frames {
			if f.PageNo == pager.MetaPageNo {
				if err := pager.ApplyMetaFrame(st.arena, 0, f.Header); err != nil {
					return err
				}
				continue
			}
			base := st.cfg.pageBase(f.PageNo)
			st.arena.Store(base, f.Header)
			st.arena.Flush(base, len(f.Header))
		}
		st.sys.Fence()
		st.log.Truncate()
		meta, err := pager.ReadMeta(st.arena, 0)
		if err != nil {
			return err
		}
		st.meta = meta
	}
	st.needFLCheck = true
	st.flChecked = map[uint32]bool{}
	return nil
}

// maybeFixFreeList applies the paper's lazy free-list repair on the first
// post-crash use of a page.
func (st *Store) maybeFixFreeList(no uint32, tp *txnPage) {
	if !st.needFLCheck || st.flChecked[no] {
		return
	}
	st.flChecked[no] = true
	if tp.page.CheckFreeList() != nil {
		st.repairFreeList(tp.page, tp.mem)
		tp.mem.markClean()
	}
}

// repairFreeList rebuilds a page's free list from its offset array and
// persists the repair at once — the block headers, then Content, Free and
// FreeLst in the page's header, whose other fields p holds as committed —
// rather than leaving it to the commit of whatever transaction came across
// the damage: that transaction may roll back, or only be reading, and the
// next one would walk the damaged list from the committed header unchecked.
// Neither write needs to be failure-atomic: any mix of old and new is again
// a list the check rejects, or a valid one. Nor does the repair need a fence,
// although a read-only transaction's commit brings none after it: the free
// list is not failure-atomic (DESIGN.md §5 item 5), and every recovery
// re-arms needFLCheck, so a list a crash leaves damaged, the repair's
// included, is detected and rebuilt on the page's next open.
func (st *Store) repairFreeList(p *slotted.Page, mem *pageMem) {
	st.dropHeader(mem.no)
	p.RebuildFreeList()
	mem.queueUnflushed(&st.lines)
	st.lines.Flush(st.arena)
	prefix := p.Header().Encode()[:slotted.HeaderFixedSize]
	st.arena.Store(mem.base, prefix)
	st.arena.Flush(mem.base, len(prefix))
	st.stats.FreeListFixes++
}

// Begin opens the store's single write transaction.
func (st *Store) Begin() (pager.Txn, error) {
	if st.open {
		return nil, pager.ErrTxnActive
	}
	st.open = true
	st.log.Begin()
	return &Txn{
		st:         st,
		meta:       st.meta,
		dirtyOrder: st.rec.dirtyOrder,
		allocated:  st.rec.allocated,
		freed:      st.rec.freed,
		encBuf:     st.rec.encBuf,
		unit:       1,
		unitPages:  st.rec.unitPages,
	}, nil
}

// stackEntry reads free-page stack slot i.
func (st *Store) stackEntry(i uint32) uint32 {
	return st.arena.LoadU32(st.cfg.stackBase() + 4*int64(i))
}

// pushFreePages appends freed pages to the stack post-commit. A crash in
// here leaks the pages (nothing reclaims them yet), never corrupts the store.
func (st *Store) pushFreePages(count *uint32, pages []uint32) {
	for _, no := range pages {
		st.arena.StoreU32(st.cfg.stackBase()+4*int64(*count), no)
		st.arena.Flush(st.cfg.stackBase()+4*int64(*count), 4)
		*count++
		// Publish the new count with a single atomic store.
		pager.PokeFreeCount(st.arena, 0, *count)
	}
}

// Errors specific to the FAST store.
var (
	// ErrTooLarge reports a record that cannot fit any page.
	ErrTooLarge = errors.New("fast: record too large for page")
)
