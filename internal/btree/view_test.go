package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fasp/internal/fast"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

type rec struct{ k, v []byte }

// viewFixture builds a multi-level tree and returns its sorted contents.
func viewFixture(t testing.TB, n int) (*pmem.System, *fast.Store, *Tree, []rec) {
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

func newView(t testing.TB, st *fast.Store) *View {
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

// collectTx runs the transactional scan of [lo, hi] (inclusive; nil bounds
// are open) and copies out the results.
func collectTx(t *testing.T, tr *Tree, lo, hi []byte) []rec {
	t.Helper()
	tx, err := tr.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	defer tx.Rollback()
	var out []rec
	if err := tx.Scan(lo, hi, func(k, v []byte) bool {
		out = append(out, rec{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	}); err != nil {
		t.Fatalf("tx scan: %v", err)
	}
	return out
}

// within returns the records of sorted recs that b selects, in b's order:
// the model every walk is checked against. It compares keys itself rather
// than through the Bounds methods the walk uses.
func within(recs []rec, b Bounds) []rec {
	var out []rec
	for _, r := range recs {
		lo, hi := 1, -1
		if b.Lo != nil {
			lo = bytes.Compare(r.k, b.Lo)
		}
		if b.Hi != nil {
			hi = bytes.Compare(r.k, b.Hi)
		}
		if lo > 0 || lo == 0 && !b.LoX {
			if hi < 0 || hi == 0 && !b.HiX {
				out = append(out, r)
			}
		}
	}
	if b.Reverse {
		slices.Reverse(out)
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

// scanCases are the key ranges the walk is checked over on viewFixture(600).
var scanCases = []struct {
	name   string
	lo, hi []byte
}{
	{"full", nil, nil},
	{"bounded", k(100), k(450)},
	{"lo-only", k(300), nil},
	{"hi-only", nil, k(222)},
	{"between-keys", []byte("k00000100x"), []byte("k00000449x")},
	{"one-key", k(77), k(77)},
	{"first", nil, k(0)},
	{"last", k(599), nil},
	{"empty", []byte("zz"), nil},
	{"below-all", nil, []byte("a")},
	{"inverted", k(300), k(100)},
}

// eachBounds calls fn with every scan case in both directions under every
// LoX/HiX combination.
func eachBounds(fn func(label string, b Bounds)) {
	for _, tc := range scanCases {
		for _, reverse := range []bool{false, true} {
			for _, x := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				b := Bounds{Lo: tc.lo, Hi: tc.hi, LoX: x[0], HiX: x[1], Reverse: reverse}
				fn(fmt.Sprintf("%s/rev=%v/LoX=%v/HiX=%v", tc.name, reverse, x[0], x[1]), b)
			}
		}
	}
}

// TestScanMatchesModel checks the range walk against the fixture's sorted
// records: View.Scan in both directions under every LoX/HiX combination,
// and Tx.Scan forward over the inclusive bounds it takes.
func TestScanMatchesModel(t *testing.T) {
	_, st, tr, recs := viewFixture(t, 600)
	vw := newView(t, st)
	eachBounds(func(label string, b Bounds) {
		sameRecs(t, collectView(t, vw, b), within(recs, b), label)
	})
	for _, tc := range scanCases {
		b := Bounds{Lo: tc.lo, Hi: tc.hi}
		sameRecs(t, collectTx(t, tr, tc.lo, tc.hi), within(recs, b), tc.name+"/tx")
	}
}

func TestViewScanChunkedResumeEquivalence(t *testing.T) {
	// Resuming with an exclusive bound at the last delivered key — the shard
	// engine's chunking pattern — must reassemble the exact full scan.
	_, st, _, recs := viewFixture(t, 500)
	vw := newView(t, st)
	want := recs
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
	sameRecs(t, got, within(recs, Bounds{Reverse: true}), "chunked reverse")
}

func TestViewEarlyStop(t *testing.T) {
	_, st, _, _ := viewFixture(t, 300)
	vw := newView(t, st)
	for _, reverse := range []bool{false, true} {
		seen := 0
		if err := vw.Scan(Bounds{Reverse: reverse}, func(_, _ []byte) bool {
			seen++
			return seen < 10
		}); err != nil {
			t.Fatal(err)
		}
		if seen != 10 {
			t.Fatalf("reverse=%v: early stop visited %d", reverse, seen)
		}
	}
}

// TestMaxKeyAndCountMatchModel deletes the fixture's keys from the top
// down, checking MaxKey and Count against the model after each delete —
// through the stretch where the rightmost leaf, which a delete keeps as the
// insertion frontier, is empty and MaxKey must walk left past it.
func TestMaxKeyAndCountMatchModel(t *testing.T) {
	_, _, tr, recs := viewFixture(t, 600)
	emptyFrontier := 0
	for n := len(recs); n >= 0; n-- {
		tx, err := tr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		key, ok, err := tx.MaxKey()
		if err != nil || ok != (n > 0) || n > 0 && !bytes.Equal(key, recs[n-1].k) {
			t.Fatalf("%d records: MaxKey = %q %v %v", n, key, ok, err)
		}
		if c, err := tx.Count(); err != nil || c != n {
			t.Fatalf("%d records: Count = %d %v", n, c, err)
		}
		if rightmostLeafEmpty(t, tx) && n > 0 {
			emptyFrontier++
		}
		tx.Rollback()
		if n > 0 {
			if err := tr.Delete(recs[n-1].k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if emptyFrontier == 0 {
		t.Fatal("no step had an empty rightmost leaf under a non-empty tree")
	}
}

// rightmostLeafEmpty follows rightmost-child pointers from the root.
func rightmostLeafEmpty(t *testing.T, tx *Tx) bool {
	t.Helper()
	p, err := tx.page(0, tx.root.Root())
	for err == nil && p.Type() != slotted.TypeLeaf {
		p, err = tx.page(0, p.Aux())
	}
	if err != nil {
		t.Fatal(err)
	}
	return p.NCells() == 0
}

// BenchmarkViewGet is the host cost of the server's hot read: one committed
// snapshot point lookup per op, over a three-level tree of 512-byte pages.
func BenchmarkViewGet(b *testing.B) {
	_, st, _, recs := viewFixture(b, 2000)
	vw := newView(b, st)
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vw.Reset(st)
		var ok bool
		var err error
		if dst, ok, err = vw.Get(recs[i*7919%len(recs)].k, dst); !ok || err != nil {
			b.Fatalf("get: %v %v", ok, err)
		}
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

// walkCosts measures, on viewFixture(600): the View cost of every
// eachBounds scan, summed per direction; the clock charge of Tx.Scan over
// every scan case's inclusive bounds; and the clock charge of MaxKey and of
// Count, each summed over a delete of the fixture's keys from the top down.
func walkCosts(t *testing.T) [5]int64 {
	sys, st, tr, recs := viewFixture(t, 600)
	clock := sys.Clock()
	charge := func(fn func() error) int64 {
		t0 := clock.Now()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return clock.Now() - t0
	}
	all := func(_, _ []byte) bool { return true }
	var c [5]int64
	vw := newView(t, st)
	eachBounds(func(_ string, b Bounds) {
		vw.Reset(st)
		if err := vw.Scan(b, all); err != nil {
			t.Fatal(err)
		}
		if b.Reverse {
			c[1] += vw.Cost()
		} else {
			c[0] += vw.Cost()
		}
	})
	for n := len(recs); n >= 0; n-- {
		tx, err := tr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if n == len(recs) {
			for _, tc := range scanCases {
				c[2] += charge(func() error { return tx.Scan(tc.lo, tc.hi, all) })
			}
		}
		c[3] += charge(func() error { _, _, err := tx.MaxKey(); return err })
		c[4] += charge(func() error { _, err := tx.Count(); return err })
		tx.Rollback()
		if n > 0 {
			if err := tr.Delete(recs[n-1].k); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestWalkCostPin pins walkCosts to the figures of the walkers the one range
// walk replaced (separate forward and reverse View scans, a transaction scan
// of its own, and a MaxKey that recursed rightmost-first): a walk that reads
// one cell or separator more or fewer than they did, in either direction,
// moves a figure. The result checks cannot see such a walk, since the leaf
// loop tests every key it reads against both bounds.
func TestWalkCostPin(t *testing.T) {
	want := [5]int64{77978, 78186, 18698, 22112, 1823428}
	if got := walkCosts(t); got != want {
		t.Fatalf("walk costs (view fwd, view rev, tx scan, MaxKey, Count) = %v, want %v", got, want)
	}
}
