package btree

import (
	"bytes"
	"fmt"

	"fasp/internal/pager"
	"fasp/internal/slotted"
)

// Validate checks the full structural integrity of the tree: every page's
// slotted invariants, key ordering and separator bounds, uniform leaf
// depth, a zero Aux on every leaf, and the absence of page cycles.
// Crash-recovery tests call it after every recovered image.
func (x *Tx) Validate() error {
	root := x.root.Root()
	if root == 0 {
		return nil
	}
	seen := map[uint32]bool{}
	_, err := x.validatePage(root, nil, nil, seen, true)
	return err
}

// validatePage checks the subtree at no, whose keys must lie in (lo, hi]
// (nil bounds are open), and returns its leaf depth.
func (x *Tx) validatePage(no uint32, lo, hi []byte, seen map[uint32]bool, allowFreeListFix bool) (int, error) {
	if seen[no] {
		return 0, fmt.Errorf("%w: page %d reachable twice", pager.ErrCorrupt, no)
	}
	seen[no] = true
	p, err := x.p.Page(no)
	if err != nil {
		return 0, err
	}
	if err := p.Validate(); err != nil {
		return 0, fmt.Errorf("page %d: %w", no, err)
	}
	inBounds := func(k []byte) error {
		if lo != nil && bytes.Compare(k, lo) <= 0 {
			return fmt.Errorf("%w: page %d key %x <= lower bound %x", pager.ErrCorrupt, no, k, lo)
		}
		if hi != nil && bytes.Compare(k, hi) > 0 {
			return fmt.Errorf("%w: page %d key %x > upper bound %x", pager.ErrCorrupt, no, k, hi)
		}
		return nil
	}
	switch p.Type() {
	case slotted.TypeLeaf:
		if p.Aux() != 0 {
			return 0, fmt.Errorf("%w: leaf page %d has aux %d (only interior pages link one)", pager.ErrCorrupt, no, p.Aux())
		}
		for i := 0; i < p.NCells(); i++ {
			if err := inBounds(p.Key(i)); err != nil {
				return 0, err
			}
		}
		return 1, nil
	case slotted.TypeInterior:
		if p.Aux() == 0 {
			return 0, fmt.Errorf("%w: interior page %d has no rightmost child", pager.ErrCorrupt, no)
		}
		depth := -1
		prev := lo
		for i := 0; i < p.NCells(); i++ {
			k := p.Key(i)
			if err := inBounds(k); err != nil {
				return 0, err
			}
			d, err := x.validatePage(p.Child(i), prev, k, seen, allowFreeListFix)
			if err != nil {
				return 0, err
			}
			if depth == -1 {
				depth = d
			} else if d != depth {
				return 0, fmt.Errorf("%w: uneven leaf depth under page %d", pager.ErrCorrupt, no)
			}
			prev = k
		}
		d, err := x.validatePage(p.Aux(), prev, hi, seen, allowFreeListFix)
		if err != nil {
			return 0, err
		}
		if depth != -1 && d != depth {
			return 0, fmt.Errorf("%w: uneven leaf depth at rightmost child of page %d", pager.ErrCorrupt, no)
		}
		return d + 1, nil
	default:
		return 0, fmt.Errorf("%w: page %d has type %#x", pager.ErrCorrupt, no, p.Type())
	}
}

// Reachable returns the set of pages reachable from the root, for garbage
// collection of pages leaked by crashed transactions (the paper notes such
// orphans "can be safely garbage collected", §4.4).
func (x *Tx) Reachable() (map[uint32]bool, error) {
	seen := map[uint32]bool{}
	root := x.root.Root()
	if root == 0 {
		return seen, nil
	}
	var walk func(no uint32) error
	walk = func(no uint32) error {
		if seen[no] {
			return fmt.Errorf("%w: cycle at page %d", pager.ErrCorrupt, no)
		}
		seen[no] = true
		p, err := x.p.Page(no)
		if err != nil {
			return err
		}
		if p.Type() != slotted.TypeInterior {
			return nil
		}
		for i := 0; i < p.NCells(); i++ {
			if err := walk(p.Child(i)); err != nil {
				return err
			}
		}
		if p.Aux() != 0 {
			return walk(p.Aux())
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return seen, nil
}
