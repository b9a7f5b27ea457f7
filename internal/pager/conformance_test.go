package pager_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
	"fasp/internal/slotted"
)

// makeStore builds scheme s's store over a fresh simulated machine, with
// the function that reattaches and recovers it.
func makeStore(s scheme.Scheme) (pager.Store, func() (pager.Store, error)) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	g := scheme.Geometry{PageSize: 512, MaxPages: 512}
	st := s.Create(sys, g)
	return st, func() (pager.Store, error) { return s.Reattach(st.Arena(), g) }
}

// TestStoreConformance checks the semantic contract every pager.Store must
// honour, identically across schemes.
func TestStoreConformance(t *testing.T) {
	for _, s := range scheme.All {
		t.Run(s.String(), func(t *testing.T) {
			st, reopen := makeStore(s)

			// Naming and geometry.
			if st.Name() == "" || st.PageSize() != 512 || st.Sys() == nil {
				t.Fatalf("identity: %q %d", st.Name(), st.PageSize())
			}

			// Single-writer.
			tx, err := st.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Begin(); !errors.Is(err, pager.ErrTxnActive) {
				t.Fatalf("second begin: %v", err)
			}

			// Fresh store: root 0, no pages addressable.
			if tx.Root() != 0 {
				t.Fatalf("fresh root = %d", tx.Root())
			}
			if _, err := tx.Page(0); err == nil {
				t.Fatal("meta page addressable as data")
			}
			if _, err := tx.Page(7); err == nil {
				t.Fatal("unallocated page addressable")
			}

			// Allocate, write, set root, commit.
			no, p, err := tx.AllocPage(slotted.TypeLeaf)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Insert([]byte("alpha"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			tx.SetRoot(no)
			tx.OpEnd()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// Committed state visible in the next transaction.
			tx2, err := st.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if tx2.Root() != no {
				t.Fatalf("root = %d, want %d", tx2.Root(), no)
			}
			p2, err := tx2.Page(no)
			if err != nil {
				t.Fatal(err)
			}
			if i, found := p2.Search([]byte("alpha")); !found || !bytes.Equal(p2.Value(i), []byte("1")) {
				t.Fatal("committed record missing")
			}
			// Rolled-back changes invisible.
			if err := p2.Insert([]byte("beta"), []byte("2")); err != nil {
				t.Fatal(err)
			}
			tx2.OpEnd()
			tx2.Rollback()

			tx3, err := st.Begin()
			if err != nil {
				t.Fatal(err)
			}
			p3, err := tx3.Page(no)
			if err != nil {
				t.Fatal(err)
			}
			if _, found := p3.Search([]byte("beta")); found {
				t.Fatal("rolled-back record visible")
			}
			// Same-transaction read-your-writes.
			if err := p3.Insert([]byte("gamma"), []byte("3")); err != nil {
				t.Fatal(err)
			}
			if _, found := p3.Search([]byte("gamma")); !found {
				t.Fatal("own write invisible")
			}
			tx3.OpEnd()
			if err := tx3.Commit(); err != nil {
				t.Fatal(err)
			}

			// Clean reopen (crash with nothing volatile pending).
			st.Sys().Crash(pmem.EvictNone)
			st4, err := reopen()
			if err != nil {
				t.Fatal(err)
			}
			tx4, err := st4.Begin()
			if err != nil {
				t.Fatal(err)
			}
			p4, err := tx4.Page(no)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"alpha", "gamma"} {
				if _, found := p4.Search([]byte(want)); !found {
					t.Fatalf("%q lost across reopen", want)
				}
			}
			tx4.Rollback()
		})
	}
}

// TestStoreConformanceFreePages checks allocate/free lifecycles.
func TestStoreConformanceFreePages(t *testing.T) {
	for _, s := range scheme.All {
		t.Run(s.String(), func(t *testing.T) {
			st, _ := makeStore(s)
			tx, err := st.Begin()
			if err != nil {
				t.Fatal(err)
			}
			a, _, err := tx.AllocPage(slotted.TypeLeaf)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := tx.AllocPage(slotted.TypeLeaf)
			if err != nil {
				t.Fatal(err)
			}
			if a == b {
				t.Fatal("duplicate page numbers")
			}
			tx.SetRoot(a)
			tx.OpEnd()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Free b; a later allocation may reuse it but never hand out a
			// live page.
			tx2, _ := st.Begin()
			tx2.FreePage(b)
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			tx3, _ := st.Begin()
			seen := map[uint32]bool{a: true}
			for i := 0; i < 5; i++ {
				no, _, err := tx3.AllocPage(slotted.TypeLeaf)
				if err != nil {
					t.Fatal(err)
				}
				if seen[no] {
					t.Fatalf("page %d handed out twice", no)
				}
				seen[no] = true
			}
			tx3.Rollback()
		})
	}
}

// TestStoreConformanceManyTxns runs a long alternating commit/rollback
// sequence and checks the committed view stays exact.
func TestStoreConformanceManyTxns(t *testing.T) {
	for _, s := range scheme.All {
		t.Run(s.String(), func(t *testing.T) {
			st, _ := makeStore(s)
			// Bootstrap.
			tx, _ := st.Begin()
			no, _, err := tx.AllocPage(slotted.TypeLeaf)
			if err != nil {
				t.Fatal(err)
			}
			tx.SetRoot(no)
			tx.OpEnd()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			committed := map[string]bool{}
			for i := 0; i < 24; i++ {
				key := fmt.Sprintf("key%02d", i)
				tx, err := st.Begin()
				if err != nil {
					t.Fatal(err)
				}
				p, err := tx.Page(no)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Insert([]byte(key), []byte("v")); err != nil {
					// Page filled up: acceptable; stop inserting.
					tx.Rollback()
					break
				}
				tx.OpEnd()
				if i%3 == 2 {
					tx.Rollback()
				} else {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					committed[key] = true
				}
			}
			tx2, _ := st.Begin()
			p, err := tx2.Page(no)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 24; i++ {
				key := fmt.Sprintf("key%02d", i)
				_, found := p.Search([]byte(key))
				if found != committed[key] {
					t.Fatalf("%s: key %s found=%v committed=%v", s, key, found, committed[key])
				}
			}
			tx2.Rollback()
		})
	}
}
