package btree

import (
	"bytes"
	"errors"
	"fmt"

	"fasp/internal/pager"
	"fasp/internal/phase"
	"fasp/internal/slotted"
)

// split splits the leaf at the end of the descent path, following the
// paper's Figure 4: allocate a new LEFT sibling, copy the keys below the
// median into it, truncate the original page's offset array (header-only),
// and add the separator to the parent — recursively splitting parents as
// needed. The original page never moves, so ancestors' child references to
// it stay valid throughout the cascade.
func (x *Tx) split(path []pathElem) error {
	_, _, err := x.splitLevel(path, len(path)-1)
	return err
}

// capSplit makes room for key in the leaf at the end of path, which has
// reached the store's cell cap (leafAtCap). When the leaf is the tree's
// rightmost and key sorts past its last key — an append, the shape of an
// auto-increment table — a median split would leave behind a half-full leaf
// that no later key lands in, so the split appends instead (SQLite's
// balance_quick): a fresh empty leaf becomes the parent's rightmost child,
// and the old leaf, not touched at all, is keyed in the parent by its last
// key. Nothing moves, so the invariant of split holds. Any other leaf
// splits at the median.
//
// Only the cap split appends. A leaf full by bytes (insertAt) keeps the
// median split: under a scheme without a cap an append split packs leaves
// to the last byte, and every later update of a grown record then has to
// defragment its leaf copy-on-write.
func (x *Tx) capSplit(path []pathElem, key []byte) error {
	last := len(path) - 1
	// The path is in memory; the leaf's last key costs a PM read, so it is
	// looked at second.
	for _, e := range path[:last] {
		if !e.viaAux {
			return x.split(path)
		}
	}
	leaf := path[last].page
	sep := leaf.Key(leaf.NCells() - 1)
	if bytes.Compare(key, sep) <= 0 {
		return x.split(path)
	}
	newNo, _, err := x.p.AllocPage(slotted.TypeLeaf)
	if err != nil {
		return err
	}
	x.noteSplit()
	// A root leaf gets a new root: cell (sep → leaf), rightmost → new leaf.
	if err := x.addSeparator(path, last-1, sep, path[last].no, newNo); err != nil {
		return err
	}
	if last > 0 {
		// The rightmost pointer is a header field: it commits with the cell
		// just added. The page is read from the path only now, because a
		// defragmentation in addSeparator may have replaced the parent.
		path[last-1].page.SetAux(newNo)
	}
	return nil
}

// noteSplit counts a split in the store's statistics, where it keeps them.
func (x *Tx) noteSplit() {
	if ns, ok := x.st.(interface{ NoteSplit() }); ok {
		ns.NoteSplit()
	}
}

// splitLevel splits path[level], returning the new left sibling and its
// separator key (the largest key it holds).
func (x *Tx) splitLevel(path []pathElem, level int) (*slotted.Page, []byte, error) {
	pg := path[level].page
	n := pg.NCells()
	if n < 2 {
		return nil, nil, fmt.Errorf("%w: cannot split page with %d cells", ErrTooLarge, n)
	}
	m := n / 2
	sep := pg.Key(m - 1)
	newNo, left, err := x.p.AllocPage(pg.Type())
	if err != nil {
		return nil, nil, err
	}
	if pg.Type() == slotted.TypeInterior {
		// The median cell's child becomes the left sibling's rightmost
		// pointer: left covers (…, sep], keyed by cells [0, m-1).
		if err := pg.CopyRangeTo(left, 0, m-1); err != nil {
			return nil, nil, err
		}
		left.SetAux(pg.Child(m - 1))
	} else if err := pg.CopyRangeTo(left, 0, m); err != nil {
		return nil, nil, err
	}
	pg.TruncateKeepUpper(m)
	path[level].left = left
	x.noteSplit()
	if err := x.addSeparator(path, level-1, sep, newNo, path[level].no); err != nil {
		return nil, nil, err
	}
	return left, sep, nil
}

// addSeparator inserts the cell (sep, childNo) into the interior page at
// path[level]. level < 0 means childNo's right sibling rightNo was the
// root: a new root is created above both.
func (x *Tx) addSeparator(path []pathElem, level int, sep []byte, childNo, rightNo uint32) error {
	if level < 0 {
		rootNo, root, err := x.p.AllocPage(slotted.TypeInterior)
		if err != nil {
			return err
		}
		if err := root.InsertChild(sep, childNo, nil); err != nil {
			return err
		}
		root.SetAux(rightNo)
		x.root.SetRoot(rootNo)
		return nil
	}
	target := path[level].page
	for try := 0; try < 16; try++ {
		err := target.InsertChild(sep, childNo, &path[level].rng)
		if err == nil {
			return nil
		}
		if target != path[level].page {
			// A freshly split-off sibling could not absorb one separator:
			// pathological key sizes beyond the supported limits.
			return fmt.Errorf("%w: separator does not fit a fresh sibling", ErrTooLarge)
		}
		switch {
		case isNeedsDefrag(err):
			np, derr := x.defrag(path, level)
			if derr != nil {
				return derr
			}
			target = np
		case isPageFull(err):
			left, leftSep, serr := x.splitLevel(path, level)
			if serr != nil {
				return serr
			}
			if keyLE(sep, leftSep) {
				target = left
			} else {
				target = path[level].page
			}
		default:
			return err
		}
	}
	return fmt.Errorf("%w: separator insertion did not converge", pager.ErrCorrupt)
}

// defrag performs the paper's copy-on-write defragmentation (§4.3): live
// cells are copied compactly to a fresh page, and the parent's reference is
// swapped to the new page (out of place). The old page is freed at commit.
// The descent path entry is updated in place.
func (x *Tx) defrag(path []pathElem, level int) (*slotted.Page, error) {
	var np *slotted.Page
	var err error
	x.st.Sys().Clock().InPhase(phase.Defrag, func() {
		np, err = x.defragLocked(path, level)
	})
	return np, err
}

func (x *Tx) defragLocked(path []pathElem, level int) (*slotted.Page, error) {
	old := path[level]
	x.p.Defragged()
	newNo, np, err := x.p.AllocPage(old.page.Type())
	if err != nil {
		return nil, err
	}
	if err := old.page.CopyRangeTo(np, 0, old.page.NCells()); err != nil {
		return nil, err
	}
	np.SetAux(old.page.Aux())
	switch {
	case old.no == x.root.Root():
		x.root.SetRoot(newNo)
	case level == 0:
		// The top of the path was the root until this transaction split it.
		// The root made above it is not on the path; it holds the page as
		// its rightmost child.
		root, err := x.p.Page(x.root.Root())
		if err != nil {
			return nil, err
		}
		if root.Aux() != old.no {
			return nil, fmt.Errorf("%w: page %d is neither the root nor its rightmost child", pager.ErrCorrupt, old.no)
		}
		root.SetAux(newNo)
	default:
		if err := x.relinkChild(path, level-1, old.no, newNo); err != nil {
			return nil, err
		}
	}
	x.p.FreePage(old.no)
	path[level] = pathElem{no: newNo, page: np, idx: old.idx, viaAux: old.viaAux, left: old.left, rng: old.rng}
	return np, nil
}

// relinkChild swaps the parent's reference from oldNo to newNo. The
// rightmost pointer is a header field (atomic with the commit); a cell
// reference is replaced out of place, falling back to delete+reinsert when
// the parent itself lacks space.
func (x *Tx) relinkChild(path []pathElem, parentLevel int, oldNo, newNo uint32) error {
	parent := path[parentLevel].page
	idx, viaAux, ok := findChildRef(parent, oldNo)
	if !ok && path[parentLevel].left != nil {
		// The parent split on the way here and the reference went to its new
		// sibling — a compact page, so the out-of-place swap below has room.
		parent = path[parentLevel].left
		idx, viaAux, ok = findChildRef(parent, oldNo)
	}
	if !ok {
		return fmt.Errorf("%w: page %d not referenced by its parent", pager.ErrCorrupt, oldNo)
	}
	if viaAux {
		parent.SetAux(newNo)
		return nil
	}
	err := parent.UpdateChild(idx, newNo)
	if err == nil || parent != path[parentLevel].page || (!isNeedsDefrag(err) && !isPageFull(err)) {
		return err
	}
	// No in-page room for the replacement cell: remove the old cell and
	// reinsert through the full separator machinery (may defrag or split
	// the parent).
	sepKey := parent.Key(idx)
	if err := parent.Delete(idx); err != nil {
		return err
	}
	return x.addSeparator(path, parentLevel, sepKey, newNo, 0)
}

// findChildRef locates the reference to child no in an interior page.
func findChildRef(parent *slotted.Page, no uint32) (idx int, viaAux, ok bool) {
	if parent.Aux() == no {
		return 0, true, true
	}
	for i := 0; i < parent.NCells(); i++ {
		if parent.Child(i) == no {
			return i, false, true
		}
	}
	return 0, false, false
}

func isNeedsDefrag(err error) bool { return errors.Is(err, slotted.ErrNeedsDefrag) }
func isPageFull(err error) bool    { return errors.Is(err, slotted.ErrPageFull) }
