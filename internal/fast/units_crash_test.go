package fast_test

import (
	"fmt"
	"testing"

	"fasp/internal/crashx"
	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
)

// TestUnitRoundCrashSweep arms every crash point of the two unit-marked
// rounds of crashx.UnitWorkload — single-leaf units committed by in-place
// slot-header installs, two of them on one leaf, beside units that write two
// leaves, split, defragment, or free a leaf, which share one log commit —
// with nothing, everything and half of the dirty lines surviving, and again
// with a second crash at every point inside recovery. Every schedule must
// recover to the state before the round plus some subset of its units, each
// whole, with a valid tree; and the sweep must see recoveries to the two
// states only this commit shape has: one in-place leaf installed and the
// other not, and every in-place leaf installed with the logged units absent.
// Under plain FAST the same rounds are each one logged commit, whole or
// absent.
func TestUnitRoundCrashSweep(t *testing.T) {
	for _, v := range []fast.Variant{fast.InPlaceCommit, fast.SlotHeaderLogging} {
		t.Run(v.String(), func(t *testing.T) { unitRoundCrashSweep(t, v) })
	}
}

func unitRoundCrashSweep(t *testing.T, v fast.Variant) {
	gcfg := fast.Config{PageSize: 512, MaxPages: 64, LogBytes: 8 << 10, Variant: v}
	ops, units := crashx.UnitWorkload()
	var last *fast.Store // the store of the latest replay
	cfg := &crashx.Config{
		Open: func() (*pmem.System, pager.Store) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			last = fast.Create(sys, gcfg)
			return sys, last
		},
		Reattach: func(st pager.Store) (pager.Store, error) {
			ns, err := fast.Attach(st.(*fast.Store).Arena(), gcfg)
			if err != nil {
				return nil, err
			}
			return ns, ns.Recover()
		},
		Workload:  ops,
		Units:     units,
		Lotteries: 1,
		Nested:    true,
		Seed:      1,
	}

	// The rounds are the last two transactions. installs is the number of
	// in-place leaves each is built to have; between and after name, as the
	// units a recovery holds, the states a crash between two of those
	// installs and after all of them (and before the log commit mark)
	// recovers to.
	type round struct {
		name           string
		txn            int
		installs       int64
		between, after []string
		seen           map[string]int // recoveries by the units present
	}
	rounds := []*round{
		// Units 0 and 1 write one leaf, unit 2 another.
		{name: "round 1", txn: 3, installs: 2, between: []string{"01", "2"}, after: []string{"012"}},
		{name: "round 2", txn: 4, installs: 1, after: []string{"0"}},
	}
	// Under plain FAST every round is one logged commit with no install: a
	// recovery holds all of its units or none, and the sweep must see both.
	plain := v == fast.SlotHeaderLogging
	whole := func(r *round) string {
		out := ""
		for u := range units[r.txn] {
			out += fmt.Sprint(u)
		}
		return out
	}

	// One uncrashed run, marked at every transaction start and at the end:
	// the rounds commit the shape they are built for, and the crash points
	// before the first round are not armed.
	type mark struct {
		op     int
		points int64
		stats  fast.Stats
	}
	var marks []mark
	cfg.AtOp = func(i int, st pager.Store) (pager.Store, error) {
		marks = append(marks, mark{i, st.Sys().CrashPoints(), st.(*fast.Store).Stats()})
		return nil, nil
	}
	total, err := crashx.Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AtOp = nil
	marks = append(marks, mark{len(ops), 0, last.Stats()})
	for _, r := range rounds {
		s0, s := marks[r.txn].stats, marks[r.txn+1].stats
		// At least: which pages may not go in place is the sweep's to
		// prove, by tearing a unit or breaking the tree.
		want := r.installs
		if plain {
			want = 0
		}
		if got := s.InPlaceInstalls - s0.InPlaceInstalls; got < want || (plain && got != 0) || s.LogCommits-s0.LogCommits != 1 {
			t.Fatalf("%s: %d in-place installs and %d log commits, want at least %d and 1", r.name, got, s.LogCommits-s0.LogCommits, want)
		}
	}
	if s0, s := marks[rounds[0].txn].stats, marks[rounds[0].txn+1].stats; s.Splits == s0.Splits || s.Defrags == s0.Defrags {
		t.Fatalf("%s did not both split and defragment: %+v -> %+v", rounds[0].name, s0, s)
	}
	for p := marks[rounds[0].txn].points - marks[0].points; p < total; p++ {
		cfg.Points = append(cfg.Points, p)
	}

	// present reports which units of round r the recovered state holds.
	present := func(r *round, got map[string]string) string {
		out := ""
		at := marks[r.txn].op
		for u, n := range units[r.txn] {
			in := true
			for _, op := range ops[at : at+n] {
				v, ok := got[string(op.Key)]
				if op.Kind == crashx.OpDelete {
					in = in && !ok
				} else {
					in = in && ok && v == string(op.Val)
				}
			}
			if in {
				out += fmt.Sprint(u)
			}
			at += n
		}
		return out
	}
	for _, r := range rounds {
		r.seen = map[string]int{}
	}
	cfg.Check = func(got map[string]string, acked int) error {
		for _, r := range rounds {
			if acked == marks[r.txn].op {
				r.seen[present(r, got)]++
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
		t.Fatalf("not every crash point of the rounds was armed: %+v", rep)
	}
	count := func(r *round, states []string) int {
		n := 0
		for _, s := range states {
			n += r.seen[s]
		}
		return n
	}
	for _, r := range rounds {
		t.Logf("%s: recoveries by units present: %v", r.name, r.seen)
		if plain {
			for state := range r.seen {
				if state != "" && state != whole(r) {
					t.Fatalf("%s: a recovery holds units %q of a logged commit", r.name, state)
				}
			}
			if r.seen[""] == 0 || r.seen[whole(r)] == 0 {
				t.Fatalf("%s: %d recoveries without the round, %d with all of it: the sweep misses the commit point", r.name, r.seen[""], r.seen[whole(r)])
			}
			continue
		}
		if (r.between != nil && count(r, r.between) == 0) || count(r, r.after) == 0 {
			t.Fatalf("%s: %d recoveries between two in-place installs, %d after them and before the log commit mark: the sweep misses a window",
				r.name, count(r, r.between), count(r, r.after))
		}
	}
	t.Logf("%d of %d crash points armed, %d runs, %d of them nested", len(cfg.Points), total, rep.Runs, rep.NestedRuns)
}
