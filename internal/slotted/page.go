package slotted

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Mem is the memory a page lives in. Implementations route content writes
// and header updates according to the commit scheme:
//
//   - a PM-direct backend (FAST/FAST+) writes content straight into the
//     persistent page and keeps header changes in a volatile working copy
//     until the commit protocol installs them;
//   - a DRAM buffer-cache backend (NVWAL, journaling, WAL) applies both to
//     the cached image and tracks dirty ranges;
//   - MemBuf applies both to a flat byte slice, for unit tests.
type Mem interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// Read returns n bytes at off of the transaction-visible page image.
	Read(off, n int) []byte
	// Write stores src at off within the cell-content area.
	Write(off int, src []byte)
	// HeaderChanged is invoked after every mutation of the decoded header.
	HeaderChanged(h *Header)
	// Compute charges n words of pure computation to the simulated machine
	// the page lives on (a search's interpolation arithmetic).
	Compute(n int64)
}

// ScratchMem is an optional Mem extension. ReadInto fills dst with
// len(dst) bytes at off of the transaction-visible image, charging exactly
// the same simulated cost as Read(off, len(dst)) but without allocating.
// Page uses it for transient internal reads (cell size headers, key
// comparisons, free-list walks) whose results never escape the operation.
type ScratchMem interface {
	ReadInto(off int, dst []byte)
}

type extent struct{ off, size uint16 }

// freeBlock is one free-list block as read by freeBlocks: where it is and
// what its {size,next} header says. coalesce sets merged to the size the
// block has once address-adjacent neighbours are folded into it; 0 means the
// block itself was folded into a lower neighbour or into the gap.
type freeBlock struct{ off, size, next, merged uint16 }

// Page is an open handle on a slotted page. The decoded header in the
// handle is authoritative for the current transaction; mutating operations
// never overwrite previously committed record bytes, so the underlying
// committed image remains a consistent prior state until the commit
// protocol installs the new header.
type Page struct {
	mem        Mem
	sm         ScratchMem // mem's ScratchMem view, nil if unsupported
	hdr        Header
	deferFrees bool
	// hdrFloor is the encoded length of the committed header under deferred
	// frees (0 otherwise). Until commit those bytes are the page's committed
	// state even if the working offset array has shrunk below them (a split
	// truncates it), so the gap a cell may be carved from ends above them.
	hdrFloor   int
	pending    []extent // frees deferred until after commit
	pendingSum int
	// planned is set between PlanPendingFrees and ApplyPendingFrees: the
	// header already names the deferred frees' chain, which still has to be
	// written and ends at linkTo, the list head at planning time. solePrev is
	// the sole block that chain links to, whose header has to be written
	// first; its size is 0 when there is none.
	planned  bool
	linkTo   uint16
	solePrev extent

	counts Counts // read by the commit schemes when the transaction finishes

	// Reusable scratch for transient reads and cell-image construction.
	// These never alias live data: transient reads are consumed before the
	// next page operation, and imgBuf's contents are copied into the page by
	// mem.Write before the call returns.
	tmp     [8]byte
	keyBuf  []byte
	imgBuf  []byte
	blocks  []freeBlock // free-list walk (freeBlocks), list order
	byAddr  []uint16    // indices into blocks, address order
	regions []region    // Relocate's layout, address order
	caps    []int       // Relocate's destination capacities, list order
	rng     KeyRange    // Search's bounds, which start open
}

// Init formats a fresh page of the given type in mem and returns its handle.
func Init(mem Mem, typ byte) *Page {
	p := &Page{}
	InitInto(p, mem, typ)
	return p
}

// InitInto formats a fresh page of the given type in mem, reusing p's
// internal buffers. The commit schemes pool Page handles across
// transactions through this.
func InitInto(p *Page, mem Mem, typ byte) {
	p.reset(mem)
	p.hdr.Type = typ
	p.hdr.Content = uint16(mem.PageSize())
	mem.HeaderChanged(&p.hdr)
}

// Open decodes the page header from mem.
func Open(mem Mem) (*Page, error) {
	p := &Page{}
	if err := OpenInto(p, mem); err != nil {
		return nil, err
	}
	return p, nil
}

// openHeader reads and decodes the header: a HeaderFixedSize prefix first,
// then the prefix plus the full offset array (the same two reads whatever
// the backend).
func (p *Page) openHeader(mem Mem) error {
	prefix := p.readT(0, HeaderFixedSize)
	n := int(binary.LittleEndian.Uint16(prefix[2:]))
	if HeaderFixedSize+2*n > mem.PageSize() {
		return fmt.Errorf("%w: offset array (%d cells) exceeds page", ErrCorrupt, n)
	}
	full := p.readT(0, HeaderFixedSize+2*n)
	return DecodeHeaderInto(&p.hdr, full, mem.PageSize())
}

// OpenInto decodes the page header from mem into p, reusing p's buffers.
func OpenInto(p *Page, mem Mem) error {
	p.reset(mem)
	return p.openHeader(mem)
}

// reset rebinds the handle to mem with empty transaction state, keeping the
// allocated scratch and header-offset capacity.
func (p *Page) reset(mem Mem) {
	p.mem = mem
	p.sm, _ = mem.(ScratchMem)
	p.hdr = Header{Offsets: p.hdr.Offsets[:0]}
	p.deferFrees = false
	p.hdrFloor = 0
	p.pending = p.pending[:0]
	p.pendingSum = 0
	p.planned = false
	p.counts = Counts{}
}

// readT performs a transient read: the returned bytes are valid only until
// the next read and must not escape the current operation.
func (p *Page) readT(off, n int) []byte {
	if p.sm == nil {
		return p.mem.Read(off, n)
	}
	var b []byte
	if n <= len(p.tmp) {
		b = p.tmp[:n]
	} else {
		if cap(p.keyBuf) < n {
			p.keyBuf = make([]byte, n)
		}
		b = p.keyBuf[:n]
	}
	p.sm.ReadInto(off, b)
	return b
}

// OpenWithHeaderInto binds p to mem as OpenInto does, but copies the
// header from hdr, a decoded copy of the header mem holds, instead of
// reading it. It reads nothing, so it charges nothing: a backend that keeps
// decoded headers charges the two reads openHeader would make itself.
func OpenWithHeaderInto(p *Page, mem Mem, hdr *Header) {
	p.reset(mem)
	hdr.CopyTo(&p.hdr)
}

// SetDeferFrees selects whether freed cell extents enter the free list
// immediately (volatile caches) or only after ApplyPendingFrees (PM-direct
// backends, where writing a free-block header would destroy committed
// record bytes before the transaction commits). A PM-direct backend calls it
// on a freshly opened page, whose header is then the committed one: its
// bytes are kept out of the gap for the same reason.
func (p *Page) SetDeferFrees(d bool) {
	p.deferFrees = d
	p.hdrFloor = 0
	if d {
		p.hdrFloor = p.hdr.EncodedLen()
	}
}

// ReserveHeader keeps the first n bytes of the page out of the gap until the
// handle is rebound, as SetDeferFrees keeps the committed header's. A commit
// protocol that logs header images before its commit point calls it with
// each image's length: recovery replays every image in order, and an early,
// longer one must not land on a cell that a later operation carved where the
// header has since shrunk.
func (p *Page) ReserveHeader(n int) { p.hdrFloor = max(p.hdrFloor, n) }

// Header returns the authoritative decoded header.
func (p *Page) Header() *Header { return &p.hdr }

// Type returns the page type byte.
func (p *Page) Type() byte { return p.hdr.Type }

// NCells returns the number of records in the page.
func (p *Page) NCells() int { return len(p.hdr.Offsets) }

// notify pushes the mutated header to the backend.
func (p *Page) notify() { p.mem.HeaderChanged(&p.hdr) }

// --- Cell parsing ---------------------------------------------------------

// cellExtent returns the location and size of cell i.
func (p *Page) cellExtent(i int) extent {
	off := p.hdr.Offsets[i]
	switch p.hdr.Type {
	case TypeLeaf:
		b := p.readT(int(off), 4)
		klen := binary.LittleEndian.Uint16(b)
		vlen := binary.LittleEndian.Uint16(b[2:])
		return extent{off, 4 + klen + vlen}
	case TypeInterior:
		b := p.readT(int(off), 2)
		klen := binary.LittleEndian.Uint16(b)
		return extent{off, 6 + klen}
	default:
		panic(fmt.Sprintf("slotted: cellExtent on page type %#x", p.hdr.Type))
	}
}

// Key returns the key of cell i.
func (p *Page) Key(i int) []byte {
	off := int(p.hdr.Offsets[i])
	switch p.hdr.Type {
	case TypeLeaf:
		b := p.mem.Read(off, 4)
		klen := int(binary.LittleEndian.Uint16(b))
		return p.mem.Read(off+4, klen)
	case TypeInterior:
		b := p.mem.Read(off, 2)
		klen := int(binary.LittleEndian.Uint16(b))
		return p.mem.Read(off+6, klen)
	default:
		panic(fmt.Sprintf("slotted: Key on page type %#x", p.hdr.Type))
	}
}

// Value returns the value of leaf cell i.
func (p *Page) Value(i int) []byte {
	if p.hdr.Type != TypeLeaf {
		panic("slotted: Value on non-leaf page")
	}
	off := int(p.hdr.Offsets[i])
	b := p.mem.Read(off, 4)
	klen := int(binary.LittleEndian.Uint16(b))
	vlen := int(binary.LittleEndian.Uint16(b[2:]))
	return p.mem.Read(off+4+klen, vlen)
}

// Child returns the child page number of interior cell i.
func (p *Page) Child(i int) uint32 {
	if p.hdr.Type != TypeInterior {
		panic("slotted: Child on non-interior page")
	}
	off := int(p.hdr.Offsets[i])
	return binary.LittleEndian.Uint32(p.readT(off+2, 4))
}

// keyTransient returns the key of cell i into the page's scratch, issuing
// the same two reads as Key. The result is valid only until the next read.
func (p *Page) keyTransient(i int) []byte {
	off := int(p.hdr.Offsets[i])
	switch p.hdr.Type {
	case TypeLeaf:
		b := p.readT(off, 4)
		klen := int(binary.LittleEndian.Uint16(b))
		return p.readT(off+4, klen)
	case TypeInterior:
		b := p.readT(off, 2)
		klen := int(binary.LittleEndian.Uint16(b))
		return p.readT(off+6, klen)
	default:
		panic(fmt.Sprintf("slotted: Key on page type %#x", p.hdr.Type))
	}
}

// --- Space management ------------------------------------------------------

// gapAfter returns the unallocated bytes between the offset array (assuming
// extraEntries future entries, and never shorter than the committed header)
// and the content area.
func (p *Page) gapAfter(extraEntries int) int {
	end := HeaderFixedSize + 2*(len(p.hdr.Offsets)+extraEntries)
	if end < p.hdrFloor {
		end = p.hdrFloor
	}
	return int(p.hdr.Content) - end
}

// FreeTotal returns the usable free bytes for new cells, assuming one more
// offset entry: gap plus free-list bytes (excluding pending frees, which
// cannot be reused before commit).
func (p *Page) FreeTotal() int {
	g := p.gapAfter(1)
	if g < 0 {
		g = 0
	}
	return g + int(p.hdr.Free) - p.pendingSum
}

// allocate finds size contiguous bytes for a new cell: the free-list head if
// it holds them, then the gap, then the rest of the list first-fit (SQLite's
// allocateSpace, the code the paper modifies, also searches its freeblock
// list before the gap). Churn that frees and rewrites cells of one size so
// takes back the block it just freed, whose lines are warm, rather than
// cold gap lines. The caller is about to add one offset entry.
//
// When both fail, the list is coalesced and both are tried once more before
// the caller is told to defragment: the failed walk has just pulled every
// block header into the cache, so the second look is cheap, while a
// defragmentation copies the page.
func (p *Page) allocate(size int) (uint16, error) {
	off, ok := p.fit(size)
	if !ok && p.coalesce(size) {
		p.counts.Coalesces++
		off, ok = p.fit(size)
	}
	if ok {
		return off, nil
	}
	if p.gapAfter(1) < 0 {
		// No room for the offset-array entry itself. Churn can squeeze the
		// content start against the header while ample free-list space
		// remains below it; compaction repairs that.
		if p.fitsAfterDefrag(size) {
			return 0, fmt.Errorf("%w: offset array squeezed", ErrNeedsDefrag)
		}
		return 0, fmt.Errorf("%w: offset array full", ErrPageFull)
	}
	if p.fitsAfterDefrag(size) {
		return 0, fmt.Errorf("%w: %d bytes requested, %d free but fragmented or pending", ErrNeedsDefrag, size, p.FreeTotal())
	}
	return 0, fmt.Errorf("%w: %d bytes requested, %d free", ErrPageFull, size, p.FreeTotal())
}

// fit carves size bytes out of the list head, the gap or, failing both, the
// first later free block that holds them (allocate gives the order).
func (p *Page) fit(size int) (uint16, bool) {
	gap := p.gapAfter(1)
	if gap < 0 {
		return 0, false
	}
	prev, cur := uint16(0), p.hdr.FreeLst
	if cur != 0 {
		bsz, next := p.blockAt(cur)
		if int(bsz) >= size {
			return p.carve(0, cur, bsz, next, size), true
		}
		prev, cur = cur, next
	}
	if gap >= size {
		p.hdr.Content -= uint16(size)
		return p.hdr.Content, true
	}
	for cur != 0 {
		bsz, next := p.blockAt(cur)
		if int(bsz) >= size {
			return p.carve(prev, cur, bsz, next, size), true
		}
		prev, cur = cur, next
	}
	return 0, false
}

// carve takes size bytes out of the free block at cur, of bsz bytes and
// successor next, whose predecessor in the list is prev (0 for the head),
// and returns where the cell goes. The head is carved from its front, so
// that the cell starts on the line just read and the remainder's header
// usually shares the cell's last line (a sole block needs no header: the
// remainder is the new FreeLst in the commit image), any later block from
// its tail, which leaves its predecessor's link alone.
func (p *Page) carve(prev, cur, bsz, next uint16, size int) uint16 {
	if take := uint16(size); bsz-take >= MinFreeBlock {
		p.hdr.Free -= take
		if prev == 0 {
			if p.hdr.Flags&FlagSoleFree == 0 {
				p.writeBlock(cur+take, bsz-take, next)
			}
			p.hdr.FreeLst = cur + take
			p.counts.HeadCarves++
			return cur
		}
		// Shrink the block in place; the new cell takes its tail.
		p.writeBlock(cur, bsz-take, next)
		return cur + bsz - take
	}
	// Take the whole block; the leftover (<MinFreeBlock) is lost until
	// defragmentation or a free-list rebuild.
	if prev == 0 {
		p.hdr.FreeLst = next
		p.hdr.Flags &^= FlagSoleFree
	} else {
		nb := p.tmp[:2]
		binary.LittleEndian.PutUint16(nb, next)
		p.mem.Write(int(prev)+2, nb)
	}
	p.hdr.Free -= bsz
	return cur
}

// blockAt returns the size and successor of the free block at off: a sole
// block's from the slot header (FlagSoleFree), any other's from its
// {size,next} header in the page.
func (p *Page) blockAt(off uint16) (size, next uint16) {
	if p.hdr.Flags&FlagSoleFree != 0 {
		return uint16(int(p.hdr.Free) - p.pendingSum), 0
	}
	p.counts.BlockReads++
	b := p.readT(int(off), 4)
	return binary.LittleEndian.Uint16(b), binary.LittleEndian.Uint16(b[2:])
}

// writeBlock writes a free-block header, from the handle's scratch (a local
// array would escape through the Mem interface and cost an allocation).
func (p *Page) writeBlock(off, size, next uint16) {
	b := p.tmp[:4]
	binary.LittleEndian.PutUint16(b, size)
	binary.LittleEndian.PutUint16(b[2:], next)
	p.mem.Write(int(off), b)
}

// freeBlocks walks the free list into the page's scratch, in list order,
// and leaves byAddr holding the same blocks' indices in address order. It
// reports a list that leaves the page, loops, holds a block too small to
// carry a header, or holds two blocks that overlap, and a sole-block flag on
// an empty list.
func (p *Page) freeBlocks() ([]freeBlock, error) {
	ps := p.mem.PageSize()
	bl := p.blocks[:0]
	if p.hdr.Flags&FlagSoleFree != 0 && p.hdr.FreeLst == 0 {
		return nil, fmt.Errorf("%w: sole free block flagged on an empty list", ErrCorrupt)
	}
	for cur := p.hdr.FreeLst; cur != 0; {
		if int(cur) < HeaderFixedSize || int(cur)+MinFreeBlock > ps {
			return nil, fmt.Errorf("%w: free block at %d out of bounds", ErrCorrupt, cur)
		}
		if len(bl) >= ps/MinFreeBlock {
			return nil, fmt.Errorf("%w: free list cycle", ErrCorrupt)
		}
		sz, next := p.blockAt(cur)
		if sz < MinFreeBlock || int(cur)+int(sz) > ps {
			return nil, fmt.Errorf("%w: free block at %d size %d invalid", ErrCorrupt, cur, sz)
		}
		bl = append(bl, freeBlock{off: cur, size: sz, next: next, merged: sz})
		cur = next
	}
	p.blocks = bl
	// Insertion sort: a page holds a handful of blocks, and the list is
	// often nearly address-ordered already.
	ord := p.byAddr[:0]
	for i := range bl {
		ord = append(ord, uint16(i))
		for j := i; j > 0 && bl[ord[j-1]].off > bl[ord[j]].off; j-- {
			ord[j-1], ord[j] = ord[j], ord[j-1]
		}
	}
	p.byAddr = ord
	for i := 1; i < len(ord); i++ {
		lo, hi := bl[ord[i-1]], bl[ord[i]]
		if int(lo.off)+int(lo.size) > int(hi.off) {
			return nil, fmt.Errorf("%w: free blocks at %d and %d overlap", ErrCorrupt, lo.off, hi.off)
		}
	}
	return bl, nil
}

// coalesce merges address-adjacent free blocks and moves a run that starts
// at the content pointer into the gap — if fit(size) succeeds afterwards,
// which it reports; otherwise the page is about to be copied or split and
// nothing is written.
//
// Merging rewrites only the {size,next} headers of blocks that already are
// free blocks: never committed cells, never pending extents. The list keeps
// its order, minus the blocks that were folded away, so a header is written
// only where its size grew or its successor vanished; the total stays equal
// to Free. The gap absorb is header-only (Content up, Free down) and so
// commits with the slot header. A malformed list is left untouched.
func (p *Page) coalesce(size int) bool {
	gap := p.gapAfter(1)
	if gap+int(p.hdr.Free)-p.pendingSum < size {
		return false
	}
	bl, err := p.freeBlocks()
	if err != nil || len(bl) == 0 {
		return false
	}
	ord := p.byAddr
	run := &bl[ord[0]]
	for _, i := range ord[1:] {
		b := &bl[i]
		if int(run.off)+int(run.merged) == int(b.off) {
			run.merged += b.size
			b.merged = 0
		} else {
			run = b
		}
	}
	absorbed := uint16(0)
	if first := &bl[ord[0]]; first.off == p.hdr.Content {
		absorbed, first.merged = first.merged, 0
	}
	gap += int(absorbed)
	fits := gap >= size
	for i := 0; !fits && gap >= 0 && i < len(bl); i++ {
		fits = int(bl[i].merged) >= size
	}
	if !fits {
		return false
	}
	if absorbed > 0 {
		p.hdr.Content += absorbed
		p.hdr.Free -= absorbed
		p.counts.GapAbsorbs++
	}
	next := uint16(0)
	for i := len(bl) - 1; i >= 0; i-- {
		b := &bl[i]
		if b.merged == 0 {
			continue
		}
		if b.merged != b.size || next != b.next {
			p.writeBlock(b.off, b.merged, next)
		}
		next = b.off
	}
	p.hdr.FreeLst = next
	if next == 0 {
		p.hdr.Flags &^= FlagSoleFree // the sole block went back to the gap
	}
	return true
}

// fitsAfterDefrag reports whether size <= CapacityAfterDefrag(), reading
// the cells only when the header cannot tell: the gap and the free list
// (pending frees included) lie outside every live cell, so a cell no larger
// than both together fits a compacted page.
func (p *Page) fitsAfterDefrag(size int) bool {
	return size <= p.gapAfter(1)+int(p.hdr.Free) || size <= p.CapacityAfterDefrag()
}

// LiveBytes returns the total size of all live cells.
func (p *Page) LiveBytes() int {
	total := 0
	for i := range p.hdr.Offsets {
		total += int(p.cellExtent(i).size)
	}
	return total
}

// CapacityAfterDefrag returns the largest cell that would fit after
// copy-on-write defragmentation rebuilt the page compactly with one more
// offset entry. Unlike FreeTotal, this includes pending frees and lost
// fragments, because a rewritten page reclaims them all.
func (p *Page) CapacityAfterDefrag() int {
	c := p.mem.PageSize() - HeaderFixedSize - 2*(len(p.hdr.Offsets)+1) - p.LiveBytes()
	if c < 0 {
		c = 0
	}
	return c
}

// freeCell releases a cell extent. With deferred frees the extent only
// joins the free list at ApplyPendingFrees time; its bytes remain intact,
// preserving the page's committed state. Otherwise it becomes the list head
// at once: the sole block, with no header of its own, if the list was empty,
// and when it joins a sole block, that block's header is written first.
func (p *Page) freeCell(e extent) {
	p.hdr.Free += e.size
	if p.deferFrees {
		p.pending = append(p.pending, e)
		p.pendingSum += int(e.size)
		return
	}
	if e.size < MinFreeBlock {
		// Too small to hold a block header; the bytes are lost until a
		// rebuild. Keep Free accounting honest by backing the bytes out.
		p.hdr.Free -= e.size
		return
	}
	switch {
	case p.hdr.FreeLst == 0:
		p.hdr.Flags |= FlagSoleFree
	case p.hdr.Flags&FlagSoleFree != 0:
		p.writeBlock(p.hdr.FreeLst, p.hdr.Free-e.size, 0)
		p.hdr.Flags &^= FlagSoleFree
		fallthrough
	default:
		p.writeBlock(e.off, e.size, p.hdr.FreeLst)
	}
	p.hdr.FreeLst = e.off
}

// PlanPendingFrees is the header half of linking the deferred frees: it
// sets Content, FreeLst and Free to the values they have once
// ApplyPendingFrees has written the block headers. An extent that starts at
// the content pointer goes back to the gap, and so, in turn, does one that
// starts where that one ended (SQLite's freeSpace rule): Content moves up
// and no block header is ever written for it. The rest are chained (first
// pending extent → current head, each next one → its predecessor, FreeLst →
// the last; extents too small for a header are backed out of Free). Flags
// rides along: one extent left to link into an empty list becomes its sole
// block, whose header is never written, and extents that join a sole block
// clear the flag. A commit protocol calls it just before it encodes the
// header for its commit image, so these fields ride that image and need no
// write of their own afterwards; no HeaderChanged is raised for that reason.
// No page operation may follow until ApplyPendingFrees: until the commit
// point, absorbed extents are committed cells, which an allocation from the
// gap would overwrite.
func (p *Page) PlanPendingFrees() {
	if p.planned || len(p.pending) == 0 {
		return
	}
	p.planned = true
	for i := 0; i < len(p.pending); i++ {
		if e := p.pending[i]; e.off == p.hdr.Content {
			p.hdr.Content += e.size
			p.hdr.Free -= e.size
			p.pendingSum -= int(e.size)
			p.pending = slices.Delete(p.pending, i, i+1)
			p.counts.EdgeAbsorbs++
			i = -1 // any other extent may start at the new pointer
		}
	}
	p.linkTo = p.hdr.FreeLst
	p.solePrev = extent{}
	if p.hdr.Flags&FlagSoleFree != 0 {
		size, _ := p.blockAt(p.linkTo)
		p.solePrev = extent{p.linkTo, size}
	}
	linked := 0
	for _, e := range p.pending {
		if e.size < MinFreeBlock {
			p.hdr.Free -= e.size
		} else {
			p.hdr.FreeLst = e.off
			linked++
		}
	}
	switch {
	case linked == 0:
		p.solePrev = extent{} // the sole block stays sole
	case p.solePrev.size != 0:
		p.hdr.Flags &^= FlagSoleFree
	case linked == 1 && p.linkTo == 0:
		p.hdr.Flags |= FlagSoleFree
	}
}

// ApplyPendingFrees links every deferred free into the free list: a sole
// block they joined gets its header, then the planned chain's block headers
// are written into the freed extents — none, if the one extent linked is
// now the sole block. Commit protocols call it after the transaction's
// commit point.
func (p *Page) ApplyPendingFrees() {
	if p.PlanPendingFrees(); !p.planned {
		return // nothing was pending
	}
	if e := p.solePrev; e.size != 0 {
		p.writeBlock(e.off, e.size, 0)
	}
	if p.hdr.Flags&FlagSoleFree == 0 {
		next := p.linkTo
		for _, e := range p.pending {
			if e.size >= MinFreeBlock {
				p.writeBlock(e.off, e.size, next)
				next = e.off
			}
		}
	}
	p.pending = p.pending[:0]
	p.pendingSum = 0
	p.planned = false
	p.notify()
}

// Counts counts how a page handle searched its cells, and found and
// returned free space, since it was bound to its page.
type Counts struct {
	Coalesces   int // allocations that succeeded only after coalescing the free list
	GapAbsorbs  int // coalescing passes that moved the content pointer up
	EdgeAbsorbs int // deferred frees at the content pointer returned to the gap at commit
	HeadCarves  int // cells carved from the front of the free-list head
	BlockReads  int // free-block headers read from the page (a sole block's is in the slot header)

	LeafSearches, LeafProbes         int // searches of a leaf, and the cell keys they read
	InteriorSearches, InteriorProbes int // the same on an interior page
}

// Counts reports the handle's Counts.
func (p *Page) Counts() Counts { return p.counts }

// PendingFrees reports the number of deferred free extents still to be
// written as free blocks.
func (p *Page) PendingFrees() int { return len(p.pending) }

// --- Mutations --------------------------------------------------------------

// cellImg returns the reusable cell-image scratch sized to n. The image is
// consumed (copied into the page) by mem.Write before the operation returns.
func (p *Page) cellImg(n int) []byte {
	if cap(p.imgBuf) < n {
		p.imgBuf = make([]byte, n)
	}
	return p.imgBuf[:n]
}

// Insert adds a record to a leaf page, keeping the offset array sorted.
func (p *Page) Insert(key, val []byte) error {
	i, found := p.Search(key)
	if found {
		return fmt.Errorf("%w: key %x", ErrDuplicate, key)
	}
	return p.InsertAt(i, key, val)
}

// InsertAt adds a record to a leaf page at index i, which must be what
// Search(key) returned for an absent key, with no mutation of the page since.
func (p *Page) InsertAt(i int, key, val []byte) error {
	img := p.cellImg(4 + len(key) + len(val))
	binary.LittleEndian.PutUint16(img, uint16(len(key)))
	binary.LittleEndian.PutUint16(img[2:], uint16(len(val)))
	copy(img[4:], key)
	copy(img[4+len(key):], val)
	return p.insertCell(i, img)
}

// InsertChild adds a separator cell (key, child) to an interior page whose
// keys lie in r (SearchRange, which narrows it); nil r knows nothing of
// them.
func (p *Page) InsertChild(key []byte, child uint32, r *KeyRange) error {
	if r == nil {
		p.rng.Open()
		r = &p.rng
	}
	i, found := p.SearchRange(key, r)
	if found {
		return fmt.Errorf("%w: key %x", ErrDuplicate, key)
	}
	img := p.cellImg(6 + len(key))
	binary.LittleEndian.PutUint16(img, uint16(len(key)))
	binary.LittleEndian.PutUint32(img[2:], child)
	copy(img[6:], key)
	return p.insertCell(i, img)
}

func (p *Page) insertCell(i int, img []byte) error {
	if p.hdr.Type != TypeLeaf && p.hdr.Type != TypeInterior {
		panic(fmt.Sprintf("slotted: insert on page type %#x", p.hdr.Type))
	}
	if i < 0 || i > len(p.hdr.Offsets) {
		return fmt.Errorf("%w: insert at cell %d of %d", ErrNotFound, i, len(p.hdr.Offsets))
	}
	off, err := p.allocate(len(img))
	if err != nil {
		return err
	}
	p.mem.Write(int(off), img)
	p.hdr.Offsets = append(p.hdr.Offsets, 0)
	copy(p.hdr.Offsets[i+1:], p.hdr.Offsets[i:])
	p.hdr.Offsets[i] = off
	p.notify()
	return nil
}

// Update replaces the value of leaf cell i out of place: the new record is
// written into free space and the offset swapped, so the old record remains
// intact for recovery (§3.2, "Updating a record").
func (p *Page) Update(i int, val []byte) error {
	if p.hdr.Type != TypeLeaf {
		panic("slotted: Update on non-leaf page")
	}
	if i < 0 || i >= len(p.hdr.Offsets) {
		return fmt.Errorf("%w: cell %d", ErrNotFound, i)
	}
	key := p.keyTransient(i)
	img := p.cellImg(4 + len(key) + len(val))
	binary.LittleEndian.PutUint16(img, uint16(len(key)))
	binary.LittleEndian.PutUint16(img[2:], uint16(len(val)))
	copy(img[4:], key)
	copy(img[4+len(key):], val)
	return p.replaceCell(i, img)
}

// UpdateChild replaces the child pointer of interior cell i out of place,
// used when defragmentation substitutes a rewritten page.
func (p *Page) UpdateChild(i int, child uint32) error {
	if p.hdr.Type != TypeInterior {
		panic("slotted: UpdateChild on non-interior page")
	}
	if i < 0 || i >= len(p.hdr.Offsets) {
		return fmt.Errorf("%w: cell %d", ErrNotFound, i)
	}
	key := p.keyTransient(i)
	img := p.cellImg(6 + len(key))
	binary.LittleEndian.PutUint16(img, uint16(len(key)))
	binary.LittleEndian.PutUint32(img[2:], child)
	copy(img[6:], key)
	return p.replaceCell(i, img)
}

func (p *Page) replaceCell(i int, img []byte) error {
	old := p.cellExtent(i)
	off, err := p.allocate(len(img))
	if err != nil {
		return err
	}
	p.mem.Write(int(off), img)
	p.freeCell(old)
	p.hdr.Offsets[i] = off
	p.notify()
	return nil
}

// Delete removes cell i, releasing its extent (§3.2, "Deleting a record").
func (p *Page) Delete(i int) error {
	if i < 0 || i >= len(p.hdr.Offsets) {
		return fmt.Errorf("%w: cell %d", ErrNotFound, i)
	}
	p.freeCell(p.cellExtent(i))
	p.hdr.Offsets = append(p.hdr.Offsets[:i], p.hdr.Offsets[i+1:]...)
	p.notify()
	return nil
}

// SetAux updates the auxiliary pointer: an interior page's rightmost child.
// A leaf keeps it 0 (the B-tree validator rejects one that does not).
func (p *Page) SetAux(v uint32) {
	p.hdr.Aux = v
	p.notify()
}

// Aux returns the auxiliary pointer.
func (p *Page) Aux() uint32 { return p.hdr.Aux }

// TruncateKeepUpper drops cells [0, from) from the offset array — the
// header-only half of a B-tree split, where the original page keeps the
// keys ≥ median (§4.1). The dropped extents are freed (deferred, under a
// PM-direct backend, until the split transaction commits).
func (p *Page) TruncateKeepUpper(from int) {
	for i := 0; i < from; i++ {
		p.freeCell(p.cellExtent(i))
	}
	p.hdr.Offsets = append([]uint16(nil), p.hdr.Offsets[from:]...)
	p.notify()
}

// CopyRangeTo copies cells [lo, hi) into dst (a fresh page of the same
// type), preserving order. Used to populate the new sibling during a split
// and the replacement page during defragmentation. The cells arrive in key
// order, so a leaf's are appended without searching dst.
func (p *Page) CopyRangeTo(dst *Page, lo, hi int) error {
	for i := lo; i < hi; i++ {
		var err error
		if p.hdr.Type == TypeLeaf {
			err = dst.InsertAt(dst.NCells(), p.Key(i), p.Value(i))
		} else {
			err = dst.InsertChild(p.Key(i), p.Child(i), nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// --- Free-list maintenance and validation -----------------------------------

// CheckFreeList verifies that the free list is structurally sound — in
// bounds, acyclic, no two blocks overlapping — and that its total matches
// the header's Free counter (net of pending frees). A sole block's total is
// Free by definition, so it is checked against the cells instead: it must
// lie in the content area and hold no byte of a live cell. A mismatch after
// a crash means the list must be rebuilt (§4.3).
func (p *Page) CheckFreeList() error {
	bl, err := p.freeBlocks()
	if err != nil {
		return err
	}
	if p.hdr.Flags&FlagSoleFree != 0 {
		return p.checkSole(bl[0])
	}
	total := 0
	for i := range bl {
		total += int(bl[i].size)
	}
	if total != int(p.hdr.Free)-p.pendingSum {
		return fmt.Errorf("%w: free list total %d != header free %d - pending %d",
			ErrCorrupt, total, p.hdr.Free, p.pendingSum)
	}
	return nil
}

// checkSole verifies the sole free block b against the cells: it starts at
// or above the content pointer, no cell starts inside it, and the cell
// nearest below it, whose header is the one read this costs, ends at or
// before it. A header whose Free counts frees its list does not hold yet —
// a FAST frame logged before its transaction linked them, replayed after a
// crash — names a block that runs over a cell, and fails here.
func (p *Page) checkSole(b freeBlock) error {
	lo, hi := int(b.off), int(b.off)+int(b.size)
	if lo < int(p.hdr.Content) {
		return fmt.Errorf("%w: sole free block at %d below content start %d", ErrCorrupt, lo, p.hdr.Content)
	}
	below := -1
	for i, o := range p.hdr.Offsets {
		if int(o) >= lo && int(o) < hi {
			return fmt.Errorf("%w: sole free block [%d,%d) holds cell %d", ErrCorrupt, lo, hi, i)
		}
		if int(o) < lo && (below < 0 || o > p.hdr.Offsets[below]) {
			below = i
		}
	}
	if below >= 0 && (p.hdr.Type == TypeLeaf || p.hdr.Type == TypeInterior) {
		if e := p.cellExtent(below); int(e.off)+int(e.size) > lo {
			return fmt.Errorf("%w: cell %d runs into the sole free block at %d", ErrCorrupt, below, lo)
		}
	}
	return nil
}

// RebuildFreeList reconstructs the free list from the record offset array,
// the paper's lazy repair for free lists damaged by an ill-timed crash
// (free-list updates are deliberately not failure-atomic). Every byte of
// the content area not covered by a live cell becomes free space; pending
// frees are absorbed.
func (p *Page) RebuildFreeList() {
	used := make([]extent, 0, len(p.hdr.Offsets))
	for i := range p.hdr.Offsets {
		used = append(used, p.cellExtent(i))
	}
	sort.Slice(used, func(i, j int) bool { return used[i].off < used[j].off })
	minUsed := uint16(p.mem.PageSize())
	if len(used) > 0 {
		minUsed = used[0].off
	}
	p.hdr.Content = minUsed
	p.hdr.Flags &^= FlagSoleFree
	p.hdr.FreeLst = 0
	p.hdr.Free = 0
	p.pending = p.pending[:0]
	p.pendingSum = 0
	p.planned = false
	// Walk gaps between used extents, building blocks from the tail so the
	// list ends up address-ordered from the head.
	type gap struct{ off, size int }
	var gaps []gap
	cursor := int(minUsed)
	for _, e := range used {
		if int(e.off) > cursor {
			gaps = append(gaps, gap{cursor, int(e.off) - cursor})
		}
		if end := int(e.off) + int(e.size); end > cursor {
			cursor = end
		}
	}
	if cursor < p.mem.PageSize() {
		gaps = append(gaps, gap{cursor, p.mem.PageSize() - cursor})
	}
	for i := len(gaps) - 1; i >= 0; i-- {
		g := gaps[i]
		if g.size < MinFreeBlock {
			continue
		}
		p.writeBlock(uint16(g.off), uint16(g.size), p.hdr.FreeLst)
		p.hdr.FreeLst = uint16(g.off)
		p.hdr.Free += uint16(g.size)
	}
	p.notify()
}

// Validate checks the structural invariants of the page: in-bounds,
// non-overlapping cells, sorted keys, and a coherent free list.
func (p *Page) Validate() error {
	ps := p.mem.PageSize()
	if p.hdr.Type != TypeLeaf && p.hdr.Type != TypeInterior {
		return fmt.Errorf("%w: unexpected page type %#x", ErrCorrupt, p.hdr.Type)
	}
	if int(p.hdr.Content) > ps {
		return fmt.Errorf("%w: content start %d > page size", ErrCorrupt, p.hdr.Content)
	}
	if p.gapAfter(0) < 0 {
		return fmt.Errorf("%w: offset array overlaps content area", ErrCorrupt)
	}
	minCellHeader := 4
	if p.hdr.Type == TypeInterior {
		minCellHeader = 6
	}
	exts := make([]extent, 0, len(p.hdr.Offsets))
	for i := range p.hdr.Offsets {
		// Bounds-check the raw offset before parsing the cell header, so
		// garbage images error rather than read out of range.
		off := int(p.hdr.Offsets[i])
		if off < HeaderFixedSize || off+minCellHeader > ps {
			return fmt.Errorf("%w: cell %d offset %d out of bounds", ErrCorrupt, i, off)
		}
		e := p.cellExtent(i)
		if int(e.off) < int(p.hdr.Content) || int(e.off)+int(e.size) > ps {
			return fmt.Errorf("%w: cell %d extent [%d,%d) out of bounds", ErrCorrupt, i, e.off, int(e.off)+int(e.size))
		}
		exts = append(exts, e)
	}
	sorted := append([]extent(nil), exts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].off < sorted[j].off })
	for i := 1; i < len(sorted); i++ {
		if int(sorted[i-1].off)+int(sorted[i-1].size) > int(sorted[i].off) {
			return fmt.Errorf("%w: cells overlap at %d", ErrCorrupt, sorted[i].off)
		}
	}
	for i := 1; i < len(p.hdr.Offsets); i++ {
		if bytes.Compare(p.Key(i-1), p.Key(i)) >= 0 {
			return fmt.Errorf("%w: keys out of order at cell %d", ErrCorrupt, i)
		}
	}
	return p.CheckFreeList()
}
