package slotted

import (
	"cmp"
	"slices"
)

// region is one stretch of the content area as the offset array and the free
// list lay it out: cell ≥ 0 is the index of a cell that runs from off to the
// next region, so that any bytes lost behind it count as its own, and cell -1
// a free block of exactly its size. n is the size Relocate has to place: a
// cell's layout extent while it plans, the cell's own size once it moves it.
type region struct {
	off, end, n int
	cell        int
}

// Relocate makes a free run of at least size contiguous bytes on a page that
// has just refused an allocation of size bytes with ErrNeedsDefrag, by moving
// a few cells rather than copying the page. The handle must hold no pending
// frees: its header must be the committed one.
//
// The plan is read off the layout, not the cells: the offset array and the
// free-list walk give every region's start, a cell runs to the next region
// and a free block to its own end. The window is the address-contiguous run
// of regions that holds size free bytes once its cells are gone — together
// with the gap when it starts at the content pointer — and has the fewest
// cell bytes to move. A lost fragment behind a free block ends a window,
// because coalesce cannot merge across it. Only the moved cells' size headers
// are read. Each moves, by first fit, into a free block outside the window
// or, when the window does not start at the content pointer (where the gap
// must stay next to it), into the gap, and its whole layout extent is freed,
// lost fragment included. The frees are deferred like any others: the window
// becomes free space once the caller has installed the header and
// ApplyPendingFrees has linked them, and the retried allocation then finds
// the run through coalesce. The planner charges one word of computation per
// region it visits.
//
// It reports the window [lo, hi) and whether it moved anything; a page with
// no plan is left untouched.
func (p *Page) Relocate(size int) (lo, hi int, ok bool) {
	if len(p.pending) > 0 || p.planned || (p.hdr.Type != TypeLeaf && p.hdr.Type != TypeInterior) {
		return 0, 0, false
	}
	bl, err := p.freeBlocks()
	if err != nil {
		return 0, 0, false
	}
	rs, ok := p.layout(bl)
	if !ok {
		return 0, 0, false
	}
	i, j, edge, ok := p.window(rs, size)
	if !ok {
		return 0, 0, false
	}
	lo, hi = rs[i].off, rs[j-1].end
	// Place the cells as they are, not as the layout bounds them: first fit
	// need not succeed for smaller cells wherever it does for larger ones.
	for k := i; k < j; k++ {
		if r := &rs[k]; r.cell >= 0 {
			if r.n = int(p.cellExtent(r.cell).size); r.n > r.end-r.off {
				return 0, 0, false
			}
		}
	}
	if !p.placeable(rs[i:j], lo, hi, edge) {
		return 0, 0, false
	}
	for _, r := range rs[i:j] {
		if r.cell < 0 {
			continue
		}
		dst := p.place(r.n, lo, hi, edge)
		p.mem.Write(dst, p.readT(r.off, r.n))
		p.freeCell(extent{uint16(r.off), uint16(r.end - r.off)})
		p.hdr.Offsets[r.cell] = uint16(dst)
	}
	p.notify()
	return lo, hi, true
}

// layout lists the page's cells and the free blocks bl as regions in address
// order, in the handle's scratch. It reports a layout that cannot be the
// page's own: a region below the content pointer, a cell with no room for its
// size header, a block that runs into the next region.
func (p *Page) layout(bl []freeBlock) ([]region, bool) {
	rs := p.regions[:0]
	for i, o := range p.hdr.Offsets {
		rs = append(rs, region{off: int(o), cell: i})
	}
	for _, b := range bl {
		rs = append(rs, region{off: int(b.off), end: int(b.off) + int(b.size), cell: -1})
	}
	slices.SortFunc(rs, func(a, b region) int { return cmp.Compare(a.off, b.off) })
	p.regions = rs
	p.mem.Compute(int64(len(rs)))
	next := p.mem.PageSize()
	for k := len(rs) - 1; k >= 0; k-- {
		r := &rs[k]
		if r.cell >= 0 {
			r.end = next
			if r.end-r.off < 4 {
				return nil, false
			}
		} else if r.end > next {
			return nil, false
		}
		r.n = r.end - r.off
		next = r.off
	}
	return rs, len(rs) == 0 || rs[0].off >= int(p.hdr.Content)
}

// window finds the window of rs Relocate moves cells out of: regions
// [i, j), address-contiguous, that free a run of size bytes — with the gap
// when edge, the window starting at the content pointer — and moving the
// fewest cell bytes of those whose cells placeable can put outside them.
// Lengthening a window
// only adds cells to move and takes free blocks from their destinations, so
// each start is extended only until its first fitting window.
func (p *Page) window(rs []region, size int) (i, j int, edge, ok bool) {
	gap := p.gapAfter(1)
	best, visits := -1, 0
	for a := range rs {
		e := a == 0 && rs[0].off == int(p.hdr.Content)
		run, moved := 0, 0
		if e {
			run = gap
		} else if gap < 0 {
			break // allocation fails before the free list while the offset array is squeezed
		}
		for b := a; b < len(rs); b++ {
			visits++
			if b > a && rs[b-1].end != rs[b].off {
				break
			}
			run += rs[b].n
			if rs[b].cell >= 0 {
				moved += rs[b].n
			}
			if best >= 0 && moved >= best {
				break
			}
			if run >= size {
				if moved > 0 && p.placeable(rs[a:b+1], rs[a].off, rs[b].end, e) {
					best, i, j, edge = moved, a, b+1, e
				}
				break
			}
		}
	}
	p.mem.Compute(int64(visits))
	return i, j, edge, best >= 0
}

// placeable reports whether the cells among the window regions w, [lo, hi)
// of the page, fit by place's first fit — list order through the free blocks
// outside the window, then the gap unless edge — with the sizes their n
// fields give. It follows place's carving exactly: a block keeps what a cell
// leaves of it, unless that is too small for a block header.
func (p *Page) placeable(w []region, lo, hi int, edge bool) bool {
	caps := p.caps[:0]
	for _, b := range p.blocks {
		c := int(b.size)
		if int(b.off) >= lo && int(b.off) < hi {
			c = 0
		}
		caps = append(caps, c)
	}
	p.caps = caps
	gap := -1
	if !edge {
		gap = p.gapAfter(1)
	}
next:
	for _, r := range w {
		if r.cell < 0 {
			continue
		}
		for k, c := range caps {
			if c >= r.n {
				if caps[k] = c - r.n; caps[k] < MinFreeBlock {
					caps[k] = 0
				}
				continue next
			}
		}
		if gap < r.n {
			return false
		}
		gap -= r.n
	}
	return true
}

// place carves n bytes for a moved cell out of the first free block outside
// the window [lo, hi) that holds them or, failing that and unless edge, the
// gap, and returns their offset. placeable has checked that one of them does.
func (p *Page) place(n, lo, hi int, edge bool) int {
	for prev, cur := uint16(0), p.hdr.FreeLst; cur != 0; {
		bsz, next := p.blockAt(cur)
		if (int(cur) < lo || int(cur) >= hi) && int(bsz) >= n {
			return int(p.carve(prev, cur, bsz, next, n))
		}
		prev, cur = cur, next
	}
	if edge || p.gapAfter(1) < n {
		panic("slotted: relocation lost its destination")
	}
	p.hdr.Content -= uint16(n)
	return int(p.hdr.Content)
}
