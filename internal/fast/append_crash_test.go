package fast_test

import (
	"testing"

	"fasp/internal/btree"
	"fasp/internal/crashx"
	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// TestAppendSplitCrashSweep arms every crash point of the three
// transactions in which an append split takes a new shape — a root leaf
// that gets a new root above it, an append under an existing parent (a cell
// insert and the rightmost-pointer swap in one header), and an append whose
// separator overflows the parent, which then splits at the median in the
// same transaction — with nothing, everything and half of the dirty lines
// surviving, and again with a second crash at every point inside recovery.
// FAST+ is the one scheme with a leaf cell cap, so the only one that
// appends. Every schedule must recover to a transaction boundary with a
// valid tree, and each window must be seen to recover both ways: rolled
// back and committed.
func TestAppendSplitCrashSweep(t *testing.T) {
	gcfg := fast.Config{PageSize: 384, MaxPages: 64, LogBytes: 8 << 10, Variant: fast.InPlaceCommit}
	cfg := &crashx.Config{
		Open: func() (*pmem.System, pager.Store) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			return sys, fast.Create(sys, gcfg)
		},
		Reattach: func(st pager.Store) (pager.Store, error) {
			ns, err := fast.Attach(st.(*fast.Store).Arena(), gcfg)
			if err != nil {
				return nil, err
			}
			return ns, ns.Recover()
		},
		Workload:  crashx.AppendWorkload(640),
		Lotteries: 1,
		Nested:    true,
		Seed:      1,
	}

	// One uncrashed run finds the first transaction of each shape.
	type window struct {
		shape         string
		op            int
		lo, hi        int64 // the crash points at which the op is in flight
		before, after int   // recoveries to the state before and after it
	}
	shapes := []string{"root-leaf append", "append under a parent", "append that splits the parent"}
	wins := make([]*window, len(shapes))
	_, st := cfg.Open()
	fst := st.(*fast.Store)
	tree := btree.New(st)
	for i := range cfg.Workload {
		root, splits := fst.Meta().Root, fst.Stats().Splits
		if err := crashx.Apply(tree, &cfg.Workload[i]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		s := -1
		switch d := fst.Stats().Splits - splits; {
		case d == 1 && fst.Meta().Root != root:
			s = 0
		case d == 1:
			s = 1
		case d == 2:
			s = 2
		}
		if s >= 0 && wins[s] == nil {
			wins[s] = &window{shape: shapes[s], op: i}
		}
	}
	for s, w := range wins {
		if w == nil {
			t.Fatalf("the workload never makes a %s", shapes[s])
		}
	}
	// Every leaf split was an append: all leaves but the rightmost are full.
	if leaves, full := leafFill(t, st); leaves != (len(cfg.Workload)+slotted.MaxInPlaceCells-1)/slotted.MaxInPlaceCells || full != leaves-1 {
		t.Fatalf("%d leaves, %d of them full, for %d ascending keys: not every split appended", leaves, full, len(cfg.Workload))
	}

	// The explorer numbers only the points a crash can fire at, which
	// excludes the stores inside an HTM commit, so an op's window is found
	// by replay: the first point at which op i, or a later one, is in flight.
	total, err := crashx.Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstPoint := func(op int) int64 {
		lo, hi := int64(0), total
		for lo < hi {
			mid := (lo + hi) / 2
			if r := crashx.Run(cfg, crashx.Spec{Point: mid, RecPoint: -1}); !r.Crashed || r.Acked >= op {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	for _, w := range wins {
		w.lo, w.hi = firstPoint(w.op), firstPoint(w.op+1)
		for p := w.lo; p < w.hi; p++ {
			cfg.Points = append(cfg.Points, p)
		}
	}
	cfg.Check = func(got map[string]string, acked int) error {
		for _, w := range wins {
			if acked != w.op {
				continue
			}
			switch len(got) {
			case w.op:
				w.before++
			case w.op + 1:
				w.after++
			}
		}
		return nil
	}
	rep, err := crashx.Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s → %s", len(rep.Failures), rep.Failures[0].Spec, rep.Failures[0].Err)
	}
	if rep.Enumerated != len(cfg.Points) {
		t.Fatalf("not every window point was armed: %+v", rep)
	}
	for _, w := range wins {
		if w.before == 0 || w.after == 0 {
			t.Fatalf("%s (op %d, crash points [%d, %d)): %d recoveries to the state before it, %d after: the sweep misses its window",
				w.shape, w.op, w.lo, w.hi, w.before, w.after)
		}
		t.Logf("%s: op %d, %d crash points, %d recoveries before it and %d after",
			w.shape, w.op, w.hi-w.lo, w.before, w.after)
	}
	t.Logf("%d of %d crash points armed, %d runs, %d of them nested", len(cfg.Points), total, rep.Runs, rep.NestedRuns)
}

// leafFill counts the tree's leaves, and those of them that are full.
func leafFill(t testing.TB, st pager.Store) (leaves, full int) {
	tx, err := btree.New(st).Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	reach, err := tx.Reachable()
	if err != nil {
		t.Fatal(err)
	}
	for no := range reach {
		p, err := tx.Pager().Page(no)
		if err != nil {
			t.Fatalf("page %d: %v", no, err)
		}
		if p.Type() == slotted.TypeLeaf {
			leaves++
			if p.NCells() == slotted.MaxInPlaceCells {
				full++
			}
		}
	}
	return leaves, full
}
