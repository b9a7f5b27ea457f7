package btree

import (
	"bytes"
	"fmt"

	"fasp/internal/pager"
	"fasp/internal/slotted"
)

// The tree has no sibling links — a split must not touch its neighbours
// (§4.1) — so every read is a root-to-leaf descent, and every range read an
// explicit stack walk. Both are written once, here, over a pageSource: a
// transaction and a committed-snapshot View differ only in where a page
// comes from and what reading it costs.

// pageSource opens the pages a descent or a range walk reads. A *Tx opens
// its transaction's working copy, charging the clock and seeing its own
// writes; a *View opens the committed image into its pooled frame for that
// depth, charging the view's cost. depth is the page's level below the root:
// a page stays readable until the source opens another at the same depth.
type pageSource interface {
	page(depth int, no uint32) (*slotted.Page, error)
}

// maxDepth bounds a descent; a deeper one is a cycle in a corrupt tree.
const maxDepth = 64

func errTooDeep() error {
	return fmt.Errorf("%w: descent too deep (cycle?)", pager.ErrCorrupt)
}

// push extends path by one step and clears the fields descend does not
// set, keeping the range buffers a previous descent left in that slot.
func push(path []pathElem) []pathElem {
	if len(path) < cap(path) {
		path = path[:len(path)+1]
	} else {
		path = append(path, pathElem{})
	}
	e := &path[len(path)-1]
	e.idx, e.viaAux, e.left = 0, false, nil
	return path
}

// descend walks from the root page no to the leaf that owns key, reusing
// path's buffer for one step per page; an empty tree (no == 0) is an empty
// path. Each interior search narrows a copy of its page's range to the
// child it picks, so every page is searched between bounds the descent has
// read already.
func descend(src pageSource, no uint32, key []byte, path []pathElem) ([]pathElem, error) {
	path = path[:0]
	if no == 0 {
		return path, nil
	}
	path = push(path)
	path[0].rng.Open()
	for {
		depth := len(path) - 1
		p, err := src.page(depth, no)
		if err != nil {
			return path, err
		}
		e := &path[depth]
		e.no, e.page = no, p
		if p.Type() == slotted.TypeLeaf {
			return path, nil
		}
		if depth >= maxDepth {
			return path, errTooDeep()
		}
		path = push(path)
		e, child := &path[depth], &path[depth+1]
		child.rng.Set(&e.rng)
		i, _ := p.SearchRange(key, &child.rng)
		if i < p.NCells() {
			e.idx = i
			no = p.Child(i)
		} else {
			e.viaAux = true
			no = p.Aux()
			if no == 0 {
				return path, fmt.Errorf("%w: interior page %d lacks rightmost child",
					pager.ErrCorrupt, e.no)
			}
		}
	}
}

// searchLeaf searches the leaf at the end of path for key, between the
// bounds the descent brought it.
func searchLeaf(path []pathElem, key []byte) (int, bool) {
	e := &path[len(path)-1]
	return e.page.SearchRange(key, &e.rng)
}

// Bounds selects a key range for a scan. Nil bounds are open; LoX/HiX
// make the corresponding bound exclusive — the shard engine's chunked
// readers use that to resume a scan just past the last delivered key.
type Bounds struct {
	Lo, Hi   []byte
	LoX, HiX bool
	Reverse  bool
}

// belowLo reports whether k lies below the range.
func (b *Bounds) belowLo(k []byte) bool {
	if b.Lo == nil {
		return false
	}
	c := bytes.Compare(k, b.Lo)
	return c < 0 || b.LoX && c == 0
}

// aboveHi reports whether k lies above the range.
func (b *Bounds) aboveHi(k []byte) bool {
	if b.Hi == nil {
		return false
	}
	c := bytes.Compare(k, b.Hi)
	return c > 0 || b.HiX && c == 0
}

// step is the walk's direction through a page's cells and children.
func (b *Bounds) step() int {
	if b.Reverse {
		return -1
	}
	return 1
}

// start returns the first cell (leaf) or child (interior: cells 0..n-1, then
// the rightmost pointer as n) of p that a walk in b's direction visits: the
// end it enters from, or, on the walk's first descent, where the bound it
// enters from falls, found by a search that narrows rng as a descent does.
func (b *Bounds) start(p *slotted.Page, first bool, rng *slotted.KeyRange) int {
	leaf := p.Type() == slotted.TypeLeaf
	switch {
	case !b.Reverse:
		if first && b.Lo != nil {
			i, _ := p.SearchRange(b.Lo, rng)
			return i
		}
		return 0
	case !first || b.Hi == nil:
		if leaf {
			return p.NCells() - 1
		}
		return p.NCells()
	}
	// Children past Search(hi) hold keys above their preceding separator,
	// itself ≥ hi.
	i, found := p.SearchRange(b.Hi, rng)
	if leaf && (!found || b.HiX) {
		return i - 1
	}
	return i
}

// walkFrame is an interior page on a range walk's stack and the next child
// the walk visits there.
type walkFrame struct {
	page *slotted.Page
	next int
}

// walker holds what a range walk reuses from one walk to the next.
type walker struct {
	stack  []walkFrame
	rng    slotted.KeyRange // the first descent's bounds, narrowed level by level
	keyBuf []byte           // the key a scan hands its callback
}

// walk visits, in b's direction, every leaf under the root page root that may
// hold a key within b, handing leaf the page and the cell it starts at (see
// Bounds.start); leaf returning false ends the walk. The first descent seeks
// the bound the walk enters from; later ones enter their subtree at its
// end. The walk stops at the first subtree wholly past the far bound, as its
// separator shows before the subtree is opened; it checks a bound before it
// reads the separator, so an open bound reads none.
func (w *walker) walk(src pageSource, root uint32, b *Bounds, leaf func(p *slotted.Page, i int) bool) error {
	if root == 0 {
		return nil
	}
	w.stack = w.stack[:0]
	w.rng.Open()
	for no, first := root, true; ; {
		if len(w.stack) > maxDepth {
			return errTooDeep()
		}
		p, err := src.page(len(w.stack), no)
		if err != nil {
			return err
		}
		if next := b.start(p, first, &w.rng); p.Type() != slotted.TypeLeaf {
			w.stack = append(w.stack, walkFrame{page: p, next: next})
		} else if !leaf(p, next) {
			return nil
		} else {
			first = false
		}
		// Climb to the deepest frame with a child left, and take it.
		for no = 0; no == 0; {
			if len(w.stack) == 0 {
				return nil
			}
			f := &w.stack[len(w.stack)-1]
			i, n := f.next, f.page.NCells()
			if i < 0 || i > n {
				w.stack = w.stack[:len(w.stack)-1]
				first = false
				continue
			}
			f.next += b.step()
			if i == n {
				no = f.page.Aux()
				continue
			}
			// A separator is the largest key of the child left of it.
			if b.Reverse && b.Lo != nil && b.belowLo(f.page.Key(i)) ||
				!b.Reverse && b.Hi != nil && i > 0 && b.aboveHi(f.page.Key(i-1)) {
				return nil
			}
			no = f.page.Child(i)
		}
	}
}

// scan hands fn the records within b, in b's direction, until fn returns
// false. Each key is copied into keyBuf before its value is read, since a
// View's page reads the value into the buffer that held the key; the key
// fn gets is valid only during the call.
func (w *walker) scan(src pageSource, root uint32, b *Bounds, fn func(key, val []byte) bool) error {
	return w.walk(src, root, b, func(p *slotted.Page, i int) bool {
		for ; i >= 0 && i < p.NCells(); i += b.step() {
			k := p.Key(i)
			before, past := b.belowLo(k), b.aboveHi(k)
			if b.Reverse {
				before, past = past, before
			}
			if before {
				continue
			}
			if past {
				return false
			}
			w.keyBuf = append(w.keyBuf[:0], k...)
			if !fn(w.keyBuf, p.Value(i)) {
				return false
			}
		}
		return true
	})
}

// Scan visits records with keys in [lo, hi] in key order. Nil bounds are
// open. fn returning false stops the scan early. The key slice is valid
// only during the callback.
func (x *Tx) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	var w walker
	return w.scan(x, x.root.Root(), &Bounds{Lo: lo, Hi: hi}, fn)
}

// Count returns the number of records in the tree.
func (x *Tx) Count() (int, error) {
	n := 0
	err := x.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// MaxKey returns the largest key in the tree: the last cell of the first
// non-empty leaf a reverse walk reaches (the SQL engine assigns rowids
// past it).
func (x *Tx) MaxKey() (key []byte, ok bool, err error) {
	var w walker
	err = w.walk(x, x.root.Root(), &Bounds{Reverse: true}, func(p *slotted.Page, i int) bool {
		if i >= 0 {
			key, ok = p.Key(i), true
		}
		return !ok
	})
	return key, ok, err
}
