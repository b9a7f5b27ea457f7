package btree

import (
	"bytes"
	"errors"

	"fasp/internal/slotted"
)

func errorsIs(err, target error) bool { return errors.Is(err, target) }

// Scan visits records with keys in [lo, hi] in key order. Nil bounds are
// open. fn returning false stops the scan early. The tree has no sibling
// links (splits must not touch neighbours, §4.1), so iteration keeps an
// explicit descent stack.
func (x *Tx) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	root := x.root.Root()
	if root == 0 {
		return nil
	}
	type frame struct {
		page *slotted.Page
		next int // next cell/child index to visit
	}
	var stack []frame
	var rng slotted.KeyRange // the first descent's bounds, as in descend

	push := func(no uint32, first bool) error {
		p, err := x.p.Page(no)
		if err != nil {
			return err
		}
		start := 0
		if first && lo != nil {
			start, _ = p.SearchRange(lo, &rng)
		}
		stack = append(stack, frame{page: p, next: start})
		return nil
	}
	if err := push(root, true); err != nil {
		return err
	}
	first := true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		p := f.page
		if p.Type() == slotted.TypeLeaf {
			done := false
			for ; f.next < p.NCells(); f.next++ {
				k := p.Key(f.next)
				if lo != nil && bytes.Compare(k, lo) < 0 {
					continue
				}
				if hi != nil && bytes.Compare(k, hi) > 0 {
					return nil
				}
				if !fn(k, p.Value(f.next)) {
					done = true
					break
				}
			}
			if done {
				return nil
			}
			stack = stack[:len(stack)-1]
			first = false
			continue
		}
		// Interior: children are cell 0..n-1, then the rightmost pointer.
		if f.next > p.NCells() {
			stack = stack[:len(stack)-1]
			first = false
			continue
		}
		var child uint32
		if f.next < p.NCells() {
			// Prune subtrees entirely above hi.
			if hi != nil && f.next > 0 && bytes.Compare(p.Key(f.next-1), hi) > 0 {
				return nil
			}
			child = p.Child(f.next)
		} else {
			child = p.Aux()
		}
		f.next++
		if child == 0 {
			continue
		}
		if err := push(child, first); err != nil {
			return err
		}
	}
	return nil
}

// ScanReverse visits records with keys in [lo, hi] in descending key
// order (nil bounds are open), stopping early if fn returns false.
func (x *Tx) ScanReverse(lo, hi []byte, fn func(key, val []byte) bool) error {
	root := x.root.Root()
	if root == 0 {
		return nil
	}
	type frame struct {
		page *slotted.Page
		next int // next child/cell index to visit, counting down
	}
	var stack []frame
	push := func(no uint32) error {
		p, err := x.p.Page(no)
		if err != nil {
			return err
		}
		start := p.NCells()
		if p.Type() != slotted.TypeLeaf {
			start = p.NCells() + 1 // children: cells 0..n-1 then Aux ⇒ reverse starts at Aux
		}
		stack = append(stack, frame{page: p, next: start})
		return nil
	}
	if err := push(root); err != nil {
		return err
	}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		p := f.page
		if p.Type() == slotted.TypeLeaf {
			done := false
			for f.next--; f.next >= 0; f.next-- {
				k := p.Key(f.next)
				if hi != nil && bytes.Compare(k, hi) > 0 {
					continue
				}
				if lo != nil && bytes.Compare(k, lo) < 0 {
					return nil
				}
				if !fn(k, p.Value(f.next)) {
					done = true
					break
				}
			}
			if done {
				return nil
			}
			stack = stack[:len(stack)-1]
			continue
		}
		// Interior, descending: Aux first, then cells n-1..0.
		f.next--
		if f.next < 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		var child uint32
		if f.next == p.NCells() {
			child = p.Aux()
		} else {
			// Prune subtrees entirely below lo.
			if lo != nil && bytes.Compare(p.Key(f.next), lo) < 0 {
				return nil
			}
			child = p.Child(f.next)
		}
		if child == 0 {
			continue
		}
		if err := push(child); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of records in the tree.
func (x *Tx) Count() (int, error) {
	n := 0
	err := x.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// MaxKey returns the largest key in the tree, descending rightmost-first
// (used by the SQL engine to assign rowids).
func (x *Tx) MaxKey() ([]byte, bool, error) {
	root := x.root.Root()
	if root == 0 {
		return nil, false, nil
	}
	return x.maxUnder(root, 0)
}

func (x *Tx) maxUnder(no uint32, depth int) ([]byte, bool, error) {
	if depth > 64 {
		return nil, false, errors.New("btree: max descent too deep")
	}
	p, err := x.p.Page(no)
	if err != nil {
		return nil, false, err
	}
	if p.Type() == slotted.TypeLeaf {
		if n := p.NCells(); n > 0 {
			return p.Key(n - 1), true, nil
		}
		return nil, false, nil
	}
	if aux := p.Aux(); aux != 0 {
		if k, ok, err := x.maxUnder(aux, depth+1); ok || err != nil {
			return k, ok, err
		}
	}
	for i := p.NCells() - 1; i >= 0; i-- {
		if k, ok, err := x.maxUnder(p.Child(i), depth+1); ok || err != nil {
			return k, ok, err
		}
	}
	return nil, false, nil
}

// Min returns the smallest key, or nil if the tree is empty.
func (x *Tx) Min() ([]byte, error) {
	var k []byte
	err := x.Scan(nil, nil, func(key, _ []byte) bool {
		k = append([]byte(nil), key...)
		return false
	})
	return k, err
}
