// Package wal implements the paper's baseline recovery schemes, all built
// on a volatile DRAM buffer cache over PM database pages:
//
//   - NVWAL (Kim et al.) — the state of the art the paper compares against:
//     transactions update pages in DRAM; at commit the dirty byte ranges
//     are computed (differential logging), WAL frames are allocated from a
//     user-level persistent heap (pmalloc), payloads are copied to PM and
//     flushed, an 8-byte pointer link commits the transaction, and a
//     volatile WAL-frame index is maintained. Checkpointing is lazy.
//   - FullWAL — classic SQLite-style write-ahead logging with whole-page
//     frames in PM (no diffing, bump allocation).
//   - Journal — a rollback journal: original page images are saved to PM
//     before in-place page overwrites, and an invalid journal is replayed
//     backwards at recovery.
//
// The commit paths charge exactly the cost centres of the paper's Figure 8:
// NVWAL computation, heap management, log flush, and index construction
// (Misc).
package wal

import (
	"fmt"

	"fasp/internal/nvheap"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// Kind selects the baseline scheme.
type Kind int

const (
	// NVWAL is differential logging into a PM heap.
	NVWAL Kind = iota
	// FullWAL logs whole-page frames.
	FullWAL
	// Journal is a rollback journal with in-place database writes.
	Journal
)

func (k Kind) String() string {
	switch k {
	case NVWAL:
		return "NVWAL"
	case FullWAL:
		return "WAL"
	default:
		return "Journal"
	}
}

// Config sizes a baseline store.
type Config struct {
	PageSize int
	MaxPages int
	// LogBytes sizes the WAL heap / WAL region / journal region.
	LogBytes int64
	// CheckpointBytes triggers a lazy checkpoint once the WAL holds this
	// many payload bytes (NVWAL/FullWAL only). 0 means LogBytes/2.
	CheckpointBytes int64
	Kind            Kind
}

func (c *Config) fill() {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.MaxPages == 0 {
		c.MaxPages = 4096
	}
	if c.LogBytes == 0 {
		c.LogBytes = 4 << 20
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = c.LogBytes / 2
	}
}

func (c Config) pagesBytes() int64 { return int64(c.PageSize) * int64(c.MaxPages) }
func (c Config) walBase() int64    { return c.pagesBytes() }
func (c Config) arenaBytes() int64 { return c.walBase() + walMasterSize + c.LogBytes }
func (c Config) pageBase(no uint32) int64 {
	return int64(no) * int64(c.PageSize)
}

// Stats counts scheme-level events.
type Stats struct {
	Commits int64
	// ReadOnlyCommits counts commits of transactions that dirtied no page
	// (the metadata folded in, when changed, dirties page 0). They write
	// nothing in any kind.
	ReadOnlyCommits int64
	WALFrames       int64
	WALBytes        int64 // payload bytes written to the log/journal
	// SingleLeaf counts commits whose write set was exactly one leaf page —
	// the shape FAST+ would commit with one HTM cache-line write. It is
	// exported as the single_leaf event metric only.
	SingleLeaf     int64
	Checkpoints    int64
	JournaledPages int64
	Splits         int64
}

// Store is a DRAM-cached baseline database.
type Store struct {
	sys   *pmem.System
	pm    *pmem.Arena
	dram  *pmem.Arena
	cfg   Config
	meta  pager.Meta
	heap  *nvheap.Heap // NVWAL frame allocator
	stats Stats
	open  bool
	txid  uint64
	lines pmem.LineSet // lines queued for one flush each

	// Volatile buffer cache state: which pages have a valid DRAM image.
	resident map[uint32]bool

	// Volatile WAL state.
	walIndex  map[uint32][]int64 // pageNo -> frame offsets, oldest first
	walOrder  []int64            // all committed frames in order
	walTail   int64              // last committed frame (0 = none)
	walAlloc  int64              // FullWAL bump cursor
	walBytes  int64              // payload bytes since last checkpoint
	freePages []uint32           // committed-free page numbers (volatile)

	// Reusable scratch: page-image/payload copies and the differential-
	// logging coverage bitmap (all consumed within a single call).
	ioBuf    []byte
	coverBuf []bool
	diffBuf  []pageDiff
	frameBuf []pendingFrame

	// Recycled single-writer transaction resources, handed from finished
	// transaction to the next Begin (see the fast package for the pattern).
	rec struct {
		pages      map[uint32]*txnPage
		dirtyOrder []uint32
		poppedFree []uint32
		freed      []uint32
		handles    []*txnPage
	}
}

// takeHandle pops a pooled page handle (or makes a fresh one).
func (st *Store) takeHandle() *txnPage {
	if n := len(st.rec.handles); n > 0 {
		tp := st.rec.handles[n-1]
		st.rec.handles = st.rec.handles[:n-1]
		return tp
	}
	return &txnPage{page: new(slotted.Page), mem: new(dramMem)}
}

// pageBuf returns the store's page-size scratch buffer.
func (st *Store) pageBuf(n int) []byte {
	if cap(st.ioBuf) < n {
		st.ioBuf = make([]byte, n)
	}
	return st.ioBuf[:n]
}

const walMasterSize = 64 // magic u64, head u64, reserved

// Create formats a fresh baseline store.
func Create(sys *pmem.System, cfg Config) *Store {
	cfg.fill()
	pm := sys.NewArena(cfg.Kind.String()+"-pm", cfg.arenaBytes(), pmem.PM)
	dram := sys.NewArena(cfg.Kind.String()+"-cache", cfg.pagesBytes(), pmem.DRAM)
	st := &Store{sys: sys, pm: pm, dram: dram, cfg: cfg,
		resident: map[uint32]bool{}, walIndex: map[uint32][]int64{}}
	st.meta = pager.Meta{PageSize: uint32(cfg.PageSize), NPages: 1}
	pager.WriteMeta(pm, 0, st.meta)
	pm.StoreU64(cfg.walBase(), walMagic)
	pm.StoreU64(cfg.walBase()+8, 0) // chain head: empty
	pm.Persist(cfg.walBase(), 16)
	if cfg.Kind == NVWAL {
		st.heap = nvheap.Format(pm, cfg.walBase()+walMasterSize, cfg.LogBytes)
	}
	st.walAlloc = cfg.walBase() + walMasterSize
	return st
}

// Attach reopens a store on an existing PM arena after a crash; the DRAM
// cache starts cold. Call Recover before use.
func Attach(pmArena *pmem.Arena, cfg Config) (*Store, error) {
	cfg.fill()
	meta, err := pager.ReadMeta(pmArena, 0)
	if err != nil {
		return nil, err
	}
	if int(meta.PageSize) != cfg.PageSize {
		return nil, fmt.Errorf("%w: page size mismatch", pager.ErrCorrupt)
	}
	sys := pmArena.Sys()
	dram := sys.NewArena(cfg.Kind.String()+"-cache", cfg.pagesBytes(), pmem.DRAM)
	st := &Store{sys: sys, pm: pmArena, dram: dram, cfg: cfg, meta: meta,
		resident: map[uint32]bool{}, walIndex: map[uint32][]int64{}}
	if pmArena.LoadU64(cfg.walBase()) != walMagic {
		return nil, fmt.Errorf("%w: bad WAL master magic", pager.ErrCorrupt)
	}
	st.walAlloc = cfg.walBase() + walMasterSize
	return st, nil
}

const walMagic = 0x57414C4D_53545231 // "WALMSTR1"

// Name returns the scheme name.
func (st *Store) Name() string { return st.cfg.Kind.String() }

// PageSize returns the page size.
func (st *Store) PageSize() int { return st.cfg.PageSize }

// Sys returns the simulated machine.
func (st *Store) Sys() *pmem.System { return st.sys }

// Arena exposes the PM arena for experiment counters.
func (st *Store) Arena() *pmem.Arena { return st.pm }

// DRAM exposes the buffer-cache arena.
func (st *Store) DRAM() *pmem.Arena { return st.dram }

// Meta returns the committed metadata.
func (st *Store) Meta() pager.Meta { return st.meta }

// Stats returns scheme-level counters.
func (st *Store) Stats() Stats { return st.stats }

// NoteSplit lets the B-tree layer record a page split.
func (st *Store) NoteSplit() { st.stats.Splits++ }

// ensureResident materialises the last-committed image of a page in the
// DRAM buffer cache: the PM copy, plus — for the WAL schemes — the page's
// committed WAL frames replayed in order (PM pages are stale between
// checkpoints). This is NVWAL's mandatory extra copy that the paper's
// in-place design eliminates.
func (st *Store) ensureResident(no uint32) {
	if st.resident[no] {
		return
	}
	base := st.cfg.pageBase(no)
	img := st.pageBuf(st.cfg.PageSize)
	st.pm.Load(base, img)
	st.dram.Store(base, img)
	for _, fo := range st.walIndex[no] {
		var hdr [frameHeaderSize]byte
		st.pm.Load(fo, hdr[:])
		off := int64(leU32(hdr[4:]))
		n := int(leU32(hdr[8:]))
		payload := st.pageBuf(n)
		st.pm.Load(fo+frameHeaderSize, payload)
		st.dram.Store(base+off, payload)
	}
	st.resident[no] = true
}
