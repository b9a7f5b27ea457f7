package btree

import (
	"bytes"
	"math/rand"
	"testing"

	"fasp/internal/fast"
	"fasp/internal/pmem"
)

type rec struct{ k, v []byte }

// viewFixture builds a multi-level tree and returns its sorted contents.
func viewFixture(t *testing.T, n int) (*pmem.System, *fast.Store, *Tree, []rec) {
	t.Helper()
	sys, st, tr := newFastTree(t, fast.InPlaceCommit)
	perm := rand.New(rand.NewSource(42)).Perm(n)
	recs := make([]rec, n)
	for _, i := range perm {
		mustInsert(t, tr, i, 10+i%40)
	}
	for i := 0; i < n; i++ {
		recs[i] = rec{k: k(i), v: v(i, 10+i%40)}
	}
	return sys, st, tr, recs
}

func newView(t *testing.T, st *fast.Store) *View {
	t.Helper()
	vw := NewView()
	vw.Reset(st)
	return vw
}

func TestViewGetMatchesTree(t *testing.T) {
	_, st, tr, recs := viewFixture(t, 600)
	vw := newView(t, st)
	for _, r := range recs {
		want, ok, err := tr.Get(r.k)
		if err != nil || !ok {
			t.Fatalf("tree get %q: %v %v", r.k, ok, err)
		}
		got, ok, err := vw.Get(r.k, nil)
		if err != nil || !ok {
			t.Fatalf("view get %q: %v %v", r.k, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("view get %q = %q, want %q", r.k, got, want)
		}
	}
	if _, ok, err := vw.Get([]byte("nope"), nil); ok || err != nil {
		t.Fatalf("phantom key: %v %v", ok, err)
	}
	if vw.Cost() <= 0 {
		t.Fatal("view walk charged no simulated cost")
	}
}

func TestViewGetDoesNotAdvanceClock(t *testing.T) {
	sys, st, _, recs := viewFixture(t, 200)
	vw := newView(t, st)
	before := sys.Clock().Now()
	for _, r := range recs {
		if _, ok, err := vw.Get(r.k, nil); !ok || err != nil {
			t.Fatalf("get: %v %v", ok, err)
		}
	}
	if now := sys.Clock().Now(); now != before {
		t.Fatalf("view reads advanced the clock: %d -> %d", before, now)
	}
}

// TestViewCostMatchesTreeGet pins the read-cost parity a View owes: while
// the lines a Get reads are cache-resident (Arena.Peek prices a line as
// Load would, it only never fills), a View walk charges exactly what
// Tree.Get's pager transaction advances the clock by — interpolated
// in-page search included, through ComputeCost.
func TestViewCostMatchesTreeGet(t *testing.T) {
	sys, st, tr, recs := viewFixture(t, 300)
	for _, r := range recs { // warm the cache: every line a Get reads
		if _, ok, err := tr.Get(r.k); !ok || err != nil {
			t.Fatalf("get %q: %v %v", r.k, ok, err)
		}
	}
	vw := newView(t, st)
	for _, r := range recs {
		before := sys.Clock().Now()
		if _, ok, err := tr.Get(r.k); !ok || err != nil {
			t.Fatalf("get %q: %v %v", r.k, ok, err)
		}
		want := sys.Clock().Now() - before
		vw.Reset(st)
		if _, ok, err := vw.Get(r.k, nil); !ok || err != nil {
			t.Fatalf("view get %q: %v %v", r.k, ok, err)
		}
		if got := vw.Cost(); got != want || got <= 0 {
			t.Fatalf("get %q: view cost %d ns, tree clock delta %d ns", r.k, got, want)
		}
	}
}

// collectView runs one View.Scan and copies out the results.
func collectView(t *testing.T, vw *View, b Bounds) []rec {
	t.Helper()
	var out []rec
	err := vw.Scan(b, func(k, v []byte) bool {
		out = append(out, rec{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	})
	if err != nil {
		t.Fatalf("view scan: %v", err)
	}
	return out
}

// collectTx runs the transactional scan over the same bounds (inclusive
// only — Tx has no exclusive bounds).
func collectTx(t *testing.T, tr *Tree, lo, hi []byte, reverse bool) []rec {
	t.Helper()
	var out []rec
	gather := func(k, v []byte) bool {
		out = append(out, rec{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	}
	tx, err := tr.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	defer tx.Rollback()
	if reverse {
		err = tx.ScanReverse(lo, hi, gather)
	} else {
		err = tx.Scan(lo, hi, gather)
	}
	if err != nil {
		t.Fatalf("tx scan: %v", err)
	}
	return out
}

func sameRecs(t *testing.T, got, want []rec, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
			t.Fatalf("%s: record %d = %q/%q, want %q/%q",
				label, i, got[i].k, got[i].v, want[i].k, want[i].v)
		}
	}
}

func TestViewScanMatchesTx(t *testing.T) {
	_, st, tr, _ := viewFixture(t, 600)
	vw := newView(t, st)
	cases := []struct {
		name   string
		lo, hi []byte
	}{
		{"full", nil, nil},
		{"bounded", k(100), k(450)},
		{"lo-only", k(300), nil},
		{"hi-only", nil, k(222)},
		{"between-keys", []byte("k00000100x"), []byte("k00000449x")},
		{"empty", []byte("zz"), nil},
	}
	for _, reverse := range []bool{false, true} {
		for _, tc := range cases {
			got := collectView(t, vw, Bounds{Lo: tc.lo, Hi: tc.hi, Reverse: reverse})
			want := collectTx(t, tr, tc.lo, tc.hi, reverse)
			dir := "fwd"
			if reverse {
				dir = "rev"
			}
			sameRecs(t, got, want, tc.name+"/"+dir)
		}
	}
}

func TestViewScanExclusiveBounds(t *testing.T) {
	_, st, tr, _ := viewFixture(t, 400)
	vw := newView(t, st)
	// Forward resume: everything strictly after k(100), up to k(300).
	got := collectView(t, vw, Bounds{Lo: k(100), Hi: k(300), LoX: true})
	want := collectTx(t, tr, k(101), k(300), false)
	sameRecs(t, got, want, "forward LoX")
	// Reverse resume: everything strictly below k(300), down to k(100).
	got = collectView(t, vw, Bounds{Lo: k(100), Hi: k(300), HiX: true, Reverse: true})
	want = collectTx(t, tr, k(100), k(299), true)
	sameRecs(t, got, want, "reverse HiX")
	// Both exclusive, both directions.
	got = collectView(t, vw, Bounds{Lo: k(100), Hi: k(300), LoX: true, HiX: true})
	want = collectTx(t, tr, k(101), k(299), false)
	sameRecs(t, got, want, "forward LoX+HiX")
	got = collectView(t, vw, Bounds{Lo: k(100), Hi: k(300), LoX: true, HiX: true, Reverse: true})
	want = collectTx(t, tr, k(101), k(299), true)
	sameRecs(t, got, want, "reverse LoX+HiX")
}

func TestViewScanChunkedResumeEquivalence(t *testing.T) {
	// Resuming with an exclusive bound at the last delivered key — the shard
	// engine's chunking pattern — must reassemble the exact full scan.
	_, st, tr, _ := viewFixture(t, 500)
	vw := newView(t, st)
	want := collectTx(t, tr, nil, nil, false)
	var got []rec
	var lo []byte
	loX := false
	for {
		n := 0
		err := vw.Scan(Bounds{Lo: lo, LoX: loX}, func(k, v []byte) bool {
			got = append(got, rec{append([]byte(nil), k...), append([]byte(nil), v...)})
			n++
			return n < 37 // odd chunk size to exercise resume at page seams
		})
		if err != nil {
			t.Fatal(err)
		}
		if n < 37 {
			break
		}
		lo = got[len(got)-1].k
		loX = true
	}
	sameRecs(t, got, want, "chunked forward")

	got = nil
	var hi []byte
	hiX := false
	for {
		n := 0
		err := vw.Scan(Bounds{Hi: hi, HiX: hiX, Reverse: true}, func(k, v []byte) bool {
			got = append(got, rec{append([]byte(nil), k...), append([]byte(nil), v...)})
			n++
			return n < 37
		})
		if err != nil {
			t.Fatal(err)
		}
		if n < 37 {
			break
		}
		hi = got[len(got)-1].k
		hiX = true
	}
	wantRev := collectTx(t, tr, nil, nil, true)
	sameRecs(t, got, wantRev, "chunked reverse")
}

func TestViewEarlyStopAndCount(t *testing.T) {
	_, st, _, recs := viewFixture(t, 300)
	vw := newView(t, st)
	seen := 0
	if err := vw.Scan(Bounds{}, func(_, _ []byte) bool {
		seen++
		return seen < 10
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("early stop visited %d", seen)
	}
	n, err := vw.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("Count = %d, want %d", n, len(recs))
	}
}

func TestViewSeesOnlyCommittedState(t *testing.T) {
	// The view reads the last committed snapshot; uncommitted txn writes are
	// invisible until Commit.
	_, st, tr, _ := viewFixture(t, 50)
	vw := newView(t, st)
	tx, err := tr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert([]byte("zz-new"), []byte("val")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := vw.Get([]byte("zz-new"), nil); ok || err != nil {
		t.Fatalf("uncommitted insert visible through view: %v %v", ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	vw.Reset(st)
	if _, ok, err := vw.Get([]byte("zz-new"), nil); !ok || err != nil {
		t.Fatalf("committed insert not visible: %v %v", ok, err)
	}
}
