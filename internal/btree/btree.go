// Package btree implements a B+-tree of slotted pages over the pager
// abstraction, following the paper's SQLite case study (§4):
//
//   - variable-length records live in leaf pages; interior pages hold
//     separator cells (key, child) where key is the largest key in the
//     child's subtree, plus a rightmost-child pointer;
//   - a page split allocates a new LEFT sibling, copies the keys smaller
//     than the median into it, truncates the original page's offset array
//     (a header-only change), and inserts the new separator into the
//     parent's free space (Figure 4);
//   - a leaf at the FAST+ cell cap that is the tree's rightmost, receiving
//     a key past its last, is not halved: a fresh empty leaf becomes the
//     rightmost child and the full one keeps every cell (SQLite's
//     balance_quick), so ascending keys fill leaves to the cap. A leaf
//     full by bytes splits at the median whatever the key (see capSplit);
//   - fragmentation is repaired on demand: a FAST+ leaf moves a few cells
//     out of the way of a free run and installs its header in place
//     (pager.Txn.Relocate); any other page is defragmented copy-on-write —
//     live cells are copied to a fresh page and the parent's child pointer
//     is swapped out of place (§4.3).
//
// All mutations run inside a pager transaction; the commit scheme of the
// underlying store (FAST, FAST+, NVWAL, …) decides how they become durable.
package btree

import (
	"bytes"
	"errors"
	"fmt"

	"fasp/internal/pager"
	"fasp/internal/phase"
	"fasp/internal/slotted"
)

// Errors returned by tree operations.
var (
	// ErrKeyNotFound reports an Update/Delete of an absent key.
	ErrKeyNotFound = errors.New("btree: key not found")
	// ErrTooLarge reports a record that cannot fit in an empty page.
	ErrTooLarge = errors.New("btree: record too large for page")
)

// Tree is a B+-tree bound to a store.
type Tree struct {
	st pager.Store
	// pathBuf is the descent-path buffer handed to each transaction in turn
	// (the store is single-writer, so at most one borrows it at a time).
	pathBuf []pathElem
}

// New binds a tree to a store. The tree's root pointer lives in the store's
// metadata; an empty store is an empty tree.
func New(st pager.Store) *Tree { return &Tree{st: st} }

// Store returns the underlying store.
func (t *Tree) Store() pager.Store { return t.st }

// Begin opens a read-write transaction on the tree. The tree's root is the
// store's root pointer.
func (t *Tree) Begin() (*Tx, error) {
	ptx, err := t.st.Begin()
	if err != nil {
		return nil, err
	}
	tx := &Tx{st: t.st, p: ptx, root: ptx, owns: true, tree: t, path: t.pathBuf[:0]}
	t.pathBuf = nil
	return tx, nil
}

// RootRef locates a tree's root pointer. A pager.Txn is itself a RootRef
// (the store's primary tree); the SQL engine supplies RootRefs backed by
// catalog rows so that many trees share one transaction.
type RootRef interface {
	Root() uint32
	SetRoot(no uint32)
}

// Attach points x, a tree view the caller keeps, at the tree whose root
// pointer is root inside an existing pager transaction, and returns x. The
// zero Tx is ready to attach; a Tx from Tree.Begin must not be. Like the
// buffer Tree.Begin lends each transaction, the descent path that earlier
// attachments grew stays with x for the next. The caller owns the
// transaction's lifecycle: Commit and Rollback on an attached Tx are errors
// by construction and must not be called.
func (x *Tx) Attach(st pager.Store, ptx pager.Txn, root RootRef) *Tx {
	*x = Tx{st: st, p: ptx, root: root, path: x.path[:0]}
	return x
}

// Insert runs a single-insert transaction — the paper's canonical mobile
// workload (one INSERT statement per transaction).
func (t *Tree) Insert(key, val []byte) error {
	return t.inTx(func(tx *Tx) error { return tx.Insert(key, val) })
}

// Update runs a single-update transaction.
func (t *Tree) Update(key, val []byte) error {
	return t.inTx(func(tx *Tx) error { return tx.Update(key, val) })
}

// Put runs a single-upsert transaction: insert, or replace on duplicate —
// one transaction (one commit, one simulated-time accounting unit) either
// way, unlike an Insert-then-Update pair at this level, which would pay
// the commit protocol twice for one logical op.
func (t *Tree) Put(key, val []byte) error {
	return t.inTx(func(tx *Tx) error { return tx.Put(key, val) })
}

// Delete runs a single-delete transaction.
func (t *Tree) Delete(key []byte) error {
	return t.inTx(func(tx *Tx) error { return tx.Delete(key) })
}

func (t *Tree) inTx(fn func(*Tx) error) error {
	tx, err := t.Begin()
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Get looks a key up in its own read-only transaction.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	tx, err := t.Begin()
	if err != nil {
		return nil, false, err
	}
	defer tx.Rollback()
	return tx.Get(key)
}

// Scan iterates records with keys in [lo, hi] (nil bounds are open) in key
// order, stopping early if fn returns false.
func (t *Tree) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	tx, err := t.Begin()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	return tx.Scan(lo, hi, fn)
}

// Tx is a transaction on the tree. All operations share the transaction's
// working state and commit (or vanish) together.
type Tx struct {
	st   pager.Store
	p    pager.Txn
	root RootRef
	tree *Tree      // set when created by Tree.Begin; owns pathBuf loan
	path []pathElem // descent-path buffer, reused across descends
	owns bool       // Tx owns the pager transaction's lifecycle
	done bool
}

// release returns the borrowed descent-path buffer to the tree.
func (x *Tx) release() {
	if x.tree != nil {
		x.tree.pathBuf = x.path[:0]
		x.path = nil
		x.tree = nil
	}
}

// Pager exposes the underlying pager transaction.
func (x *Tx) Pager() pager.Txn { return x.p }

// Commit commits the transaction through the store's scheme.
func (x *Tx) Commit() error {
	if !x.owns {
		return fmt.Errorf("btree: commit on attached transaction")
	}
	x.done = true
	x.release()
	return x.p.Commit()
}

// MarkUnit ends one atomic unit of the transaction: each unit must survive
// a crash whole or not at all, but the units of one transaction need not
// survive together, so a store whose pager transaction has a MarkUnit
// method (FAST+) may commit each the cheapest way its write set allows. On
// any other store it does nothing. A transaction never marked is one unit.
func (x *Tx) MarkUnit() {
	if m, ok := x.p.(interface{ MarkUnit() }); ok {
		m.MarkUnit()
	}
}

// Rollback abandons the transaction.
func (x *Tx) Rollback() {
	if x.done || !x.owns {
		return
	}
	x.done = true
	x.release()
	x.p.Rollback()
}

// pathElem is one step of a root-to-leaf descent.
type pathElem struct {
	no     uint32
	page   *slotted.Page
	idx    int  // which cell was followed (when !viaAux)
	viaAux bool // followed the rightmost-child pointer
	// left is the sibling a split took off this page since the descent; the
	// reference the descent followed may have moved there with the lower
	// half of the cells.
	left *slotted.Page
	// rng holds the page's keys: the bounds the parent's search ended with,
	// open at the root. A search of the page narrows it.
	rng slotted.KeyRange
}

// page opens page no in the transaction's working copy: a pageSource.
func (x *Tx) page(_ int, no uint32) (*slotted.Page, error) { return x.p.Page(no) }

// descend walks from the tree's root to the leaf that owns key, in the
// descent-path buffer the transaction keeps.
func (x *Tx) descend(key []byte) ([]pathElem, error) {
	var err error
	x.path, err = descend(x, x.root.Root(), key, x.path)
	return x.path, err
}

// Get returns the value stored under key.
func (x *Tx) Get(key []byte) ([]byte, bool, error) {
	clock := x.st.Sys().Clock()
	clock.Enter(phase.Search)
	path, err := x.descend(key)
	clock.Exit(phase.Search)
	if err != nil || len(path) == 0 {
		return nil, false, err
	}
	leaf := path[len(path)-1].page
	i, found := searchLeaf(path, key)
	if !found {
		return nil, false, nil
	}
	return leaf.Value(i), true, nil
}

// Insert adds a record; duplicate keys are rejected.
func (x *Tx) Insert(key, val []byte) error { return x.write(key, val, insertOnly) }

// Update replaces the value under key (out of place at the page level).
func (x *Tx) Update(key, val []byte) error { return x.write(key, val, updateOnly) }

// Put upserts inside the transaction: insert, or replace the value on a
// duplicate key, for the price of whichever of the two it turns out to be.
func (x *Tx) Put(key, val []byte) error { return x.write(key, val, upsert) }

// writeMode says what write does with a key that is, or is not, there.
type writeMode uint8

const (
	insertOnly writeMode = iota // slotted.ErrDuplicate if the key exists
	updateOnly                  // ErrKeyNotFound if it does not
	upsert
)

// errRetry asks the outer loop to re-descend after a structural change.
var errRetry = errors.New("btree: retry after structural change")

// write is the one loop behind Insert, Update and Put: descend once, search
// the leaf once, then insert at, or replace, the cell the search found —
// again after every split or defragmentation the attempt made room with.
func (x *Tx) write(key, val []byte, mode writeMode) error {
	if mode != updateOnly && cellSize(key, val) > x.maxCell() {
		return fmt.Errorf("%w: %d-byte cell", ErrTooLarge, cellSize(key, val))
	}
	clock := x.st.Sys().Clock()
	for attempt := 0; ; attempt++ {
		if attempt > 64 {
			return fmt.Errorf("%w: write did not converge", pager.ErrCorrupt)
		}
		clock.Enter(phase.Search)
		path, err := x.descend(key)
		clock.Exit(phase.Search)
		if err != nil {
			return err
		}
		if len(path) == 0 {
			if mode == updateOnly {
				return fmt.Errorf("%w: %x", ErrKeyNotFound, key)
			}
			// Empty tree: allocate the root leaf.
			if _, _, err := x.allocRoot(); err != nil {
				return err
			}
			continue
		}
		found := false
		clock.Enter(phase.PageUpdate)
		if leaf := path[len(path)-1].page; mode != updateOnly && x.leafAtCap(leaf) {
			// The offset array is at its in-place commit limit: split early,
			// and before the key is looked up — a Put that would only have
			// replaced a value splits the leaf as well. (Looking first was
			// measured: it trades space for time; see ROADMAP item 3.)
			if err = x.capSplit(path, key); err == nil {
				err = errRetry
			}
		} else {
			var i int
			clock.Enter(phase.RecordWrite)
			i, found = searchLeaf(path, key)
			clock.Exit(phase.RecordWrite)
			switch {
			case found && mode == insertOnly:
				err = fmt.Errorf("%w: key %x", slotted.ErrDuplicate, key)
			case !found && mode == updateOnly:
				err = fmt.Errorf("%w: %x", ErrKeyNotFound, key)
			case found:
				err = x.replaceAt(leaf, path, i, key, val)
			default:
				err = x.insertAt(leaf, path, i, key, val)
			}
		}
		clock.Exit(phase.PageUpdate)
		switch {
		case errors.Is(err, errRetry):
		case found && errors.Is(err, slotted.ErrPageFull):
			// Larger value that no longer fits: delete + reinsert (the
			// reinsert may split).
			if err := x.Delete(key); err != nil {
				return err
			}
			return x.Insert(key, val)
		default:
			return err
		}
	}
}

// leafAtCap reports whether the leaf has reached the store's leaf-fanout
// bound (FAST+ keeps leaf headers within one cache line so the in-place
// commit stays eligible).
func (x *Tx) leafAtCap(leaf *slotted.Page) bool {
	c, ok := x.st.(interface{ LeafCellCap() int })
	if !ok {
		return false
	}
	cap := c.LeafCellCap()
	return cap > 0 && leaf.NCells() >= cap
}

// insertAt adds the record at index i of leaf (the end of path), where the
// leaf's Search put it. A leaf without the room is split or defragmented,
// and errRetry returned.
func (x *Tx) insertAt(leaf *slotted.Page, path []pathElem, i int, key, val []byte) error {
	var err error
	x.st.Sys().Clock().InPhase(phase.RecordWrite, func() {
		err = leaf.InsertAt(i, key, val)
	})
	if errors.Is(err, slotted.ErrPageFull) {
		if err = x.split(path); err == nil {
			err = errRetry
		}
		return err
	}
	return x.wrote(path, cellSize(key, val), err)
}

// replaceAt replaces the value of cell i of leaf (the end of path), whose key
// is key. A leaf that has the room only after defragmentation is given it and
// errRetry returned; one that has not reports slotted.ErrPageFull.
func (x *Tx) replaceAt(leaf *slotted.Page, path []pathElem, i int, key, val []byte) error {
	var err error
	x.st.Sys().Clock().InPhase(phase.RecordWrite, func() {
		err = leaf.Update(i, val)
	})
	return x.wrote(path, cellSize(key, val), err)
}

// wrote finishes a leaf write of a size-byte cell that returned err: the
// operation ends if it succeeded, and the leaf is given the room for another
// attempt (errRetry) if it asked for defragmentation — by a store that can
// move a few of its cells and commit the move in place (FAST+), or else by
// copying it.
func (x *Tx) wrote(path []pathElem, size int, err error) error {
	switch {
	case err == nil:
		x.p.OpEnd()
	case errors.Is(err, slotted.ErrNeedsDefrag):
		x.st.Sys().Clock().InPhase(phase.Defrag, func() {
			last := len(path) - 1
			err = nil
			if !x.p.Relocate(path[last].no, size) {
				_, err = x.defragLocked(path, last)
			}
		})
		if err == nil {
			err = errRetry
		}
	}
	return err
}

// Delete removes the record under key. Leaves that become empty are
// reclaimed when they are not the parent's rightmost child.
func (x *Tx) Delete(key []byte) error {
	clock := x.st.Sys().Clock()
	clock.Enter(phase.Search)
	path, err := x.descend(key)
	clock.Exit(phase.Search)
	if err != nil {
		return err
	}
	if len(path) == 0 {
		return fmt.Errorf("%w: %x", ErrKeyNotFound, key)
	}
	leaf := path[len(path)-1].page
	found := false
	clock.InPhase(phase.PageUpdate, func() {
		clock.InPhase(phase.RecordWrite, func() {
			var i int
			if i, found = searchLeaf(path, key); found {
				err = leaf.Delete(i)
			}
		})
		if found && err == nil {
			x.reclaimIfEmpty(path)
			x.p.OpEnd()
		}
	})
	if !found {
		return fmt.Errorf("%w: %x", ErrKeyNotFound, key)
	}
	return err
}

// reclaimIfEmpty frees an empty leaf that is addressed through a parent
// cell (not the rightmost pointer), removing the separator. A root leaf
// stays; an empty-celled interior root collapses to its rightmost child.
func (x *Tx) reclaimIfEmpty(path []pathElem) {
	leaf := path[len(path)-1].page
	if leaf.NCells() != 0 || len(path) == 1 {
		return
	}
	parentElem := path[len(path)-2]
	if parentElem.viaAux {
		return // rightmost child: keep as the insertion frontier
	}
	if err := parentElem.page.Delete(parentElem.idx); err != nil {
		return // non-fatal: the empty leaf just stays
	}
	x.p.FreePage(path[len(path)-1].no)
	// Collapse a rootward chain of empty interior pages.
	if len(path) == 2 && parentElem.page.NCells() == 0 && parentElem.page.Aux() != 0 {
		x.root.SetRoot(parentElem.page.Aux())
		x.p.FreePage(parentElem.no)
	}
}

// allocRoot creates the root leaf of an empty tree.
func (x *Tx) allocRoot() (uint32, *slotted.Page, error) {
	no, p, err := x.p.AllocPage(slotted.TypeLeaf)
	if err != nil {
		return 0, nil, err
	}
	x.root.SetRoot(no)
	return no, p, nil
}

// cellSize mirrors the slotted leaf-cell layout.
func cellSize(key, val []byte) int { return 4 + len(key) + len(val) }

// maxCell is the largest leaf cell an empty page can host.
func (x *Tx) maxCell() int {
	return x.p.PageSize() - slotted.HeaderFixedSize - 2
}

// keyUpperBoundOK reports key order for validation.
func keyLE(a, b []byte) bool { return bytes.Compare(a, b) <= 0 }
