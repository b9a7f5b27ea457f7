package btree

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
	"fasp/internal/workload"
)

func TestMaxKey(t *testing.T) {
	_, _, tr := newFastTree(t, fast.InPlaceCommit)
	tx, err := tr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tx.MaxKey(); ok || err != nil {
		t.Fatalf("empty tree max = %v %v", ok, err)
	}
	tx.Rollback()
	for i := 0; i < 300; i++ {
		mustInsert(t, tr, i, 20)
	}
	tx2, _ := tr.Begin()
	defer tx2.Rollback()
	maxK, ok, err := tx2.MaxKey()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !bytes.Equal(maxK, k(299)) {
		t.Fatalf("max = %q", maxK)
	}
}

func TestMaxKeySkipsEmptyRightmostLeaves(t *testing.T) {
	_, _, tr := newFastTree(t, fast.InPlaceCommit)
	for i := 0; i < 60; i++ {
		mustInsert(t, tr, i, 30)
	}
	// Delete the largest keys: the rightmost leaf may become empty but is
	// kept (it is the parent's rightmost child).
	for i := 59; i >= 40; i-- {
		if err := tr.Delete(k(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ := tr.Begin()
	defer tx.Rollback()
	maxK, ok, err := tx.MaxKey()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !bytes.Equal(maxK, k(39)) {
		t.Fatalf("max after deletes = %q", maxK)
	}
}

func TestSequentialInsertsStayBalancedEnough(t *testing.T) {
	_, st, tr := newFastTree(t, fast.InPlaceCommit)
	const n = 800
	for i := 0; i < n; i++ {
		mustInsert(t, tr, i, 20)
	}
	tx, _ := tr.Begin()
	defer tx.Rollback()
	if err := tx.Validate(); err != nil {
		t.Fatal(err)
	}
	count, _ := tx.Count()
	if count != n {
		t.Fatalf("count = %d", count)
	}
	reach, _ := tx.Reachable()
	// Sanity on space: pages should hold a reasonable number of records.
	if len(reach) > n/3 {
		t.Fatalf("%d pages for %d records: degenerate fill", len(reach), n)
	}
	_ = st
}

func TestZipfUpdateHeavyWorkload(t *testing.T) {
	_, _, tr := newFastTree(t, fast.InPlaceCommit)
	gen := workload.New(workload.Config{Seed: 5, Keys: workload.ZipfKeys, KeySpace: 200, RecordSize: 24})
	live := map[string]bool{}
	for i := 0; i < 1500; i++ {
		key := gen.NextKey()
		if live[string(key)] {
			if err := tr.Update(key, gen.NextValue()); err != nil {
				t.Fatalf("update: %v", err)
			}
		} else {
			if err := tr.Insert(key, gen.NextValue()); err != nil {
				t.Fatalf("insert: %v", err)
			}
			live[string(key)] = true
		}
	}
	tx, _ := tr.Begin()
	defer tx.Rollback()
	if err := tx.Validate(); err != nil {
		t.Fatal(err)
	}
	n, _ := tx.Count()
	if n != len(live) {
		t.Fatalf("count = %d, want %d", n, len(live))
	}
}

func TestDeleteEverythingThenReinsert(t *testing.T) {
	_, st, tr := newFastTree(t, fast.InPlaceCommit)
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			if err := tr.Insert(k(i), v(i, 25)); err != nil {
				t.Fatalf("round %d insert %d: %v", round, i, err)
			}
		}
		for i := 0; i < 200; i++ {
			if err := tr.Delete(k(i)); err != nil {
				t.Fatalf("round %d delete %d: %v", round, i, err)
			}
		}
		tx, _ := tr.Begin()
		if err := tx.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		n, _ := tx.Count()
		tx.Rollback()
		if n != 0 {
			t.Fatalf("round %d: %d leftovers", round, n)
		}
	}
	// Page space must not grow unboundedly across rounds (reclaim works).
	if st.Meta().NPages > 200 {
		t.Fatalf("page space ballooned to %d", st.Meta().NPages)
	}
}

func TestLeafCellCapHonoured(t *testing.T) {
	_, _, tr := newFastTree(t, fast.InPlaceCommit)
	// Tiny records: without the cap a 512B page would hold far more than
	// MaxInPlaceCells records.
	for i := 0; i < 200; i++ {
		mustInsert(t, tr, i, 1)
	}
	tx, _ := tr.Begin()
	defer tx.Rollback()
	reach, err := tx.Reachable()
	if err != nil {
		t.Fatal(err)
	}
	for no := range reach {
		p, err := tx.Pager().Page(no)
		if err != nil {
			t.Fatal(err)
		}
		if p.Type() == 0x0D && p.NCells() > 25 {
			t.Fatalf("leaf %d holds %d cells under FAST+ (cap 25)", no, p.NCells())
		}
	}
}

// TestValidateRejectsLeafAux: Aux links an interior page to its rightmost
// child and nothing else. No split links a leaf to a sibling, so a leaf whose
// Aux is set is corrupt.
func TestValidateRejectsLeafAux(t *testing.T) {
	_, _, tr := newFastTree(t, fast.InPlaceCommit)
	for i := 0; i < 200; i++ {
		mustInsert(t, tr, i, 20)
	}
	tx, err := tr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := tx.Validate(); err != nil {
		t.Fatal(err)
	}
	root, err := tx.Pager().Page(tx.Pager().Root())
	if err != nil {
		t.Fatal(err)
	}
	if root.Type() != slotted.TypeInterior {
		t.Fatal("200 records fit one leaf; the test needs several")
	}
	leaf := root
	for leaf.Type() == slotted.TypeInterior {
		if leaf, err = tx.Pager().Page(leaf.Child(0)); err != nil {
			t.Fatal(err)
		}
	}
	leaf.SetAux(root.Aux()) // as if the leftmost leaf linked a right sibling
	if err := tx.Validate(); !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("leaf with aux set: Validate = %v, want ErrCorrupt", err)
	}
}

// TestAppendSplitShape pins the split policy on 5,000 keys with 100-byte
// values in a 4 KiB tree. Ascending keys under FAST+ reach the 25-cell cap
// at the tree's right edge and append: every leaf but the rightmost holds
// exactly slotted.MaxInPlaceCells cells, one split per 25 keys. The same
// keys in random order, and ascending keys under plain FAST (no cap, so
// every split is by bytes), split at the median exactly as often as before
// the append split existed.
func TestAppendSplitShape(t *testing.T) {
	const n = 5000
	asc := make([]int, n)
	for i := range asc {
		asc[i] = i
	}
	build := func(variant fast.Variant, order []int) (*fast.Store, *Tree) {
		st := fast.Create(pmem.NewSystem(pmem.DefaultLatencies(300, 300)), fast.Config{Variant: variant})
		tr := New(st)
		for _, i := range order {
			mustInsert(t, tr, i, 100)
		}
		return st, tr
	}
	st, tr := build(fast.InPlaceCommit, asc)
	cells := leafCells(t, tr)
	for i, c := range cells[:len(cells)-1] {
		if c != slotted.MaxInPlaceCells {
			t.Fatalf("ascending FAST+: leaf %d of %d holds %d cells, want %d", i, len(cells), c, slotted.MaxInPlaceCells)
		}
	}
	if got, want := st.Stats().Splits, int64((n+slotted.MaxInPlaceCells-1)/slotted.MaxInPlaceCells-1); got != want {
		t.Fatalf("ascending FAST+: %d splits, want %d", got, want)
	}
	for _, c := range []struct {
		name    string
		variant fast.Variant
		order   []int
		splits  int64
	}{
		{"random-order FAST+", fast.InPlaceCommit, rand.New(rand.NewSource(1)).Perm(n), 284},
		{"ascending FAST", fast.SlotHeaderLogging, asc, 294},
	} {
		if st, _ := build(c.variant, c.order); st.Stats().Splits != c.splits {
			t.Errorf("%s: %d splits, want %d", c.name, st.Stats().Splits, c.splits)
		}
	}
}

// leafCells returns the cell counts of the tree's leaves in key order.
func leafCells(t testing.TB, tr *Tree) []int {
	tx, err := tr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	var out []int
	var walk func(no uint32)
	walk = func(no uint32) {
		p, err := tx.Pager().Page(no)
		if err != nil {
			t.Fatal(err)
		}
		if p.Type() == slotted.TypeLeaf {
			out = append(out, p.NCells())
			return
		}
		for i := 0; i < p.NCells(); i++ {
			walk(p.Child(i))
		}
		walk(p.Aux())
	}
	walk(tx.Pager().Root())
	return out
}

func TestAttachSharesTransaction(t *testing.T) {
	_, st, tr := newFastTree(t, fast.InPlaceCommit)
	// Seed a tree.
	for i := 0; i < 10; i++ {
		mustInsert(t, tr, i, 10)
	}
	ptx, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var ax Tx
	ax.Attach(st, ptx, ptx)
	if err := ax.Insert(k(100), v(100, 10)); err != nil {
		t.Fatal(err)
	}
	// Attached transactions must not own commit/rollback.
	if err := ax.Commit(); err == nil {
		t.Fatal("attached commit did not error")
	}
	if err := ptx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get(k(100)); !ok {
		t.Fatal("insert through attached tx lost")
	}
	// Re-attached to the next transaction, the view keeps its descent-path
	// buffer and reads what the last one committed.
	path := ax.path[:1]
	if ptx, err = st.Begin(); err != nil {
		t.Fatal(err)
	}
	defer ptx.Rollback()
	if got, ok, err := ax.Attach(st, ptx, ptx).Get(k(100)); err != nil || !ok || !bytes.Equal(got, v(100, 10)) {
		t.Fatalf("re-attached Get = %x, %v, %v", got, ok, err)
	}
	if &ax.path[:1][0] != &path[0] {
		t.Fatal("re-attached view did not keep its path buffer")
	}
}

func TestRandomizedLongevity(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		_, _, tr := newFastTree(t, fast.InPlaceCommit)
		rng := rand.New(rand.NewSource(seed))
		model := map[string][]byte{}
		for step := 0; step < 2500; step++ {
			i := rng.Intn(400)
			switch rng.Intn(5) {
			case 0, 1:
				val := v(i, 5+rng.Intn(80))
				if err := tr.Insert(k(i), val); err == nil {
					model[string(k(i))] = val
				}
			case 2:
				val := v(i+1, 5+rng.Intn(80))
				if err := tr.Update(k(i), val); err == nil {
					model[string(k(i))] = val
				} else if _, in := model[string(k(i))]; in {
					t.Fatalf("seed %d step %d: update of live key failed: %v", seed, step, err)
				}
			case 3:
				if err := tr.Delete(k(i)); err == nil {
					delete(model, string(k(i)))
				}
			case 4:
				got, ok, err := tr.Get(k(i))
				if err != nil {
					t.Fatal(err)
				}
				want, in := model[string(k(i))]
				if ok != in || (ok && !bytes.Equal(got, want)) {
					t.Fatalf("seed %d step %d: get mismatch", seed, step)
				}
			}
		}
		tx, _ := tr.Begin()
		if err := tx.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n, _ := tx.Count()
		tx.Rollback()
		if n != len(model) {
			t.Fatalf("seed %d: count %d vs model %d", seed, n, len(model))
		}
	}
}

func TestInsertEmptyKeyAndValue(t *testing.T) {
	_, _, tr := newFastTree(t, fast.InPlaceCommit)
	if err := tr.Insert([]byte{}, []byte{}); err != nil {
		t.Fatalf("empty key/value: %v", err)
	}
	got, ok, err := tr.Get([]byte{})
	if err != nil || !ok || len(got) != 0 {
		t.Fatalf("get empty = %v %v %v", got, ok, err)
	}
	if err := tr.Insert([]byte{}, []byte{1}); !errors.Is(err, slotted.ErrDuplicate) {
		t.Fatalf("duplicate empty key: %v", err)
	}
}

// TestInsertIntoOverflowedPageWithinTxn is the paper's §4.3 scenario: an
// insert splits a page, and a later insert in the SAME transaction targets
// the still-uncommitted overflowing page — whose freed space is pending
// and unusable — forcing copy-on-write defragmentation.
func TestInsertIntoOverflowedPageWithinTxn(t *testing.T) {
	_, st, tr := newFastTree(t, fast.InPlaceCommit)
	tx, err := tr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Fill one leaf to the brink, then keep inserting keys that land in
	// the upper half (the page that keeps its cells after the split).
	for i := 0; i < 60; i++ {
		if err := tx.Insert(k(i*10), v(i, 40)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Dense inserts between existing upper keys, same transaction.
	for i := 0; i < 60; i++ {
		if err := tx.Insert(k(i*10+5), v(i, 40)); err != nil {
			t.Fatalf("dense insert %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := tr.Begin()
	defer tx2.Rollback()
	if err := tx2.Validate(); err != nil {
		t.Fatal(err)
	}
	n, _ := tx2.Count()
	if n != 120 {
		t.Fatalf("count = %d", n)
	}
	if st.Stats().Defrags == 0 {
		t.Log("note: no defrag triggered (split spacing avoided it); counts still verified")
	}
}

// Property (testing/quick): any operation sequence leaves the tree
// structurally valid and exactly equal to a map-based reference model.
func TestQuickCheckAgainstModel(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		_, _, tr := newFastTree(t, fast.InPlaceCommit)
		rng := rand.New(rand.NewSource(seed))
		model := map[string][]byte{}
		for _, op := range ops {
			i := rng.Intn(64)
			switch op % 4 {
			case 0, 1:
				val := v(i, 5+rng.Intn(40))
				if err := tr.Insert(k(i), val); err == nil {
					model[string(k(i))] = val
				} else if !errors.Is(err, slotted.ErrDuplicate) {
					return false
				}
			case 2:
				val := v(i+1, 5+rng.Intn(40))
				err := tr.Update(k(i), val)
				if _, in := model[string(k(i))]; in {
					if err != nil {
						return false
					}
					model[string(k(i))] = val
				} else if !errors.Is(err, ErrKeyNotFound) {
					return false
				}
			case 3:
				err := tr.Delete(k(i))
				if _, in := model[string(k(i))]; in {
					if err != nil {
						return false
					}
					delete(model, string(k(i)))
				} else if !errors.Is(err, ErrKeyNotFound) {
					return false
				}
			}
		}
		tx, err := tr.Begin()
		if err != nil {
			return false
		}
		defer tx.Rollback()
		if tx.Validate() != nil {
			return false
		}
		got := map[string][]byte{}
		if err := tx.Scan(nil, nil, func(kk, vv []byte) bool {
			got[string(kk)] = append([]byte(nil), vv...)
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(model) {
			return false
		}
		for kk, vv := range model {
			if !bytes.Equal(got[kk], vv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestScanReverse(t *testing.T) {
	_, st, tr := newFastTree(t, fast.InPlaceCommit)
	for i := 0; i < 200; i++ {
		mustInsert(t, tr, i, 12)
	}
	vw := newView(t, st)
	// Full reverse scan: strictly descending, complete.
	var keys [][]byte
	if err := vw.Scan(Bounds{Reverse: true}, func(k, _ []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 200 {
		t.Fatalf("reverse scan found %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) <= 0 {
			t.Fatal("reverse scan not descending")
		}
	}
	if !bytes.Equal(keys[0], k(199)) || !bytes.Equal(keys[199], k(0)) {
		t.Fatalf("endpoints %q %q", keys[0], keys[199])
	}
	// Bounded reverse range.
	var got []string
	if err := vw.Scan(Bounds{Lo: k(50), Hi: k(59), Reverse: true}, func(kk, _ []byte) bool {
		got = append(got, string(kk))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != string(k(59)) || got[9] != string(k(50)) {
		t.Fatalf("bounded reverse = %v", got)
	}
}

// Property: a View's reverse scan equals the reversal of the transaction's
// forward scan for any tree contents.
func TestScanReverseMatchesForward(t *testing.T) {
	f := func(seed int64) bool {
		_, st, tr := newFastTree(t, fast.InPlaceCommit)
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(150)
		for i := 0; i < n; i++ {
			_ = tr.Insert(k(rng.Intn(500)), v(i, 10))
		}
		tx, err := tr.Begin()
		if err != nil {
			return false
		}
		defer tx.Rollback()
		var fwd, rev [][]byte
		if err := tx.Scan(nil, nil, func(kk, _ []byte) bool {
			fwd = append(fwd, append([]byte(nil), kk...))
			return true
		}); err != nil {
			return false
		}
		if err := newView(t, st).Scan(Bounds{Reverse: true}, func(kk, _ []byte) bool {
			rev = append(rev, append([]byte(nil), kk...))
			return true
		}); err != nil {
			return false
		}
		if len(fwd) != len(rev) {
			return false
		}
		for i := range fwd {
			if !bytes.Equal(fwd[i], rev[len(rev)-1-i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
