package wal

import (
	"bytes"
	"testing"

	"fasp/internal/btree"
)

func viewOver(t *testing.T, st *Store) *btree.View {
	t.Helper()
	vw := btree.NewView()
	vw.Reset(st)
	return vw
}

// checkAll asserts the view sees exactly the committed records. The
// reference values come from tree reads gathered first, so the caller can
// bracket only the view walks with clock assertions.
func checkAll(t *testing.T, vw *btree.View, tr *btree.Tree, n int, label string) {
	t.Helper()
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		w, ok, err := tr.Get(k(i))
		if err != nil || !ok {
			t.Fatalf("%s: tree get %d: %v %v", label, i, ok, err)
		}
		want[i] = w
	}
	for i := 0; i < n; i++ {
		got, ok, err := vw.Get(k(i), nil)
		if err != nil || !ok {
			t.Fatalf("%s: view get %d: %v %v", label, i, ok, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s: view get %d = %q, want %q", label, i, got, want[i])
		}
	}
}

func TestPeekCommittedMatchesTreeAllKinds(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			sys, st, tr := newStore(t, kind)
			const n = 300
			for i := 0; i < n; i++ {
				if err := tr.Insert(k(i), v(i, 20+i%30)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			vw := viewOver(t, st)
			checkAll(t, vw, tr, n, "warm")
			// Pure view walks never advance the machine clock.
			before := sys.Clock().Now()
			for i := 0; i < n; i++ {
				if _, ok, err := vw.Get(k(i), nil); !ok || err != nil {
					t.Fatalf("view get %d: %v %v", i, ok, err)
				}
			}
			if now := sys.Clock().Now(); now != before {
				t.Fatalf("view reads advanced the clock: %d -> %d", before, now)
			}
			if vw.Cost() <= 0 {
				t.Fatal("view walk charged no simulated cost")
			}
		})
	}
}

func TestPeekCommittedReplaysWALFrames(t *testing.T) {
	// A rolled-back transaction evicts the pages it dirtied from the DRAM
	// cache, leaving committed WAL frames as the only delta over the stale
	// PM image. PeekCommitted must replay those frames.
	for _, kind := range []Kind{NVWAL, FullWAL} {
		t.Run(kind.String(), func(t *testing.T) {
			_, st, tr := newStore(t, kind)
			const n = 200
			for i := 0; i < n; i++ {
				if err := tr.Insert(k(i), v(i, 25)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			tx, err := tr.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert([]byte("zzz"), []byte("aborted")); err != nil {
				t.Fatal(err)
			}
			tx.Rollback()
			replayable := false
			for no := range st.walIndex {
				if !st.resident[no] && len(st.walIndex[no]) > 0 {
					replayable = true
					break
				}
			}
			if !replayable {
				t.Fatal("no non-resident page with WAL frames; scenario vacuous")
			}
			vw := viewOver(t, st)
			checkAll(t, vw, tr, n, "post-rollback")
			if _, ok, err := vw.Get([]byte("zzz"), nil); ok || err != nil {
				t.Fatalf("aborted insert visible: %v %v", ok, err)
			}
		})
	}
}

func TestPeekCommittedColdAttach(t *testing.T) {
	// After Attach re-runs recovery over the arena, the PM pages alone hold
	// the committed image (the WAL was replayed home); peeks on the fresh
	// store must see every record without making anything resident.
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			_, st, tr := newStore(t, kind)
			const n = 150
			for i := 0; i < n; i++ {
				if err := tr.Insert(k(i), v(i, 20)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			st2, err := Attach(st.Arena(), st.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := st2.Recover(); err != nil {
				t.Fatal(err)
			}
			vw := viewOver(t, st2)
			for i := 0; i < n; i++ {
				got, ok, err := vw.Get(k(i), nil)
				if err != nil || !ok {
					t.Fatalf("cold view get %d: %v %v", i, ok, err)
				}
				if !bytes.Equal(got, v(i, 20)) {
					t.Fatalf("cold view get %d = %q", i, got)
				}
			}
			if len(st2.resident) != 0 {
				t.Fatalf("peeks made %d pages resident", len(st2.resident))
			}
		})
	}
}
