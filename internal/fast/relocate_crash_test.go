package fast_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/crashx"
	"fasp/internal/fast"
	"fasp/internal/htm"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// relocation is one workload of TestRelocationCrashSweep: transactions that
// lay out a 512-byte leaf of 3-byte keys (a cell is 7 bytes longer than its
// value), and a last one whose write the leaf has room for only once cells
// move, with the move the planner must choose for it.
type relocation struct {
	name        string
	ops         []crashx.Op
	units       [][]int
	moved       int  // cells the move relocates
	edge        bool // the window starts at the content pointer
	size, vlen  int  // the last write's cell and value length
	key         string
	description string
}

func relocations() []relocation {
	op := func(kind crashx.OpKind, k, vlen int) crashx.Op {
		o := crashx.Op{Kind: kind, Key: []byte(fmt.Sprintf("k%02d", k))}
		if kind != crashx.OpDelete {
			o.Val = []byte(strings.Repeat(string(rune('a'+k%26)), vlen))
		}
		return o
	}
	ins := func(k, vlen int) crashx.Op { return op(crashx.OpInsert, k, vlen) }
	del := func(k int) crashx.Op { return op(crashx.OpDelete, k, 0) }
	build := func(name, desc string, layout []crashx.Op, holes []int, last crashx.Op, moved int, edge bool) relocation {
		ops := append([]crashx.Op(nil), layout...)
		units := [][]int{{len(layout)}}
		for _, k := range holes {
			ops, units = append(ops, del(k)), append(units, []int{1})
		}
		ops, units = append(ops, last), append(units, []int{1})
		return relocation{name: name, description: desc, ops: ops, units: units, moved: moved, edge: edge,
			size: 4 + len(last.Key) + len(last.Val), vlen: len(last.Val), key: string(last.Key)}
	}
	return []relocation{
		build("edge", "six 71-byte cells, k10 at 441 down to k60 at 86; holes at 370 and 228; "+
			"a 120-byte cell fits the 60-byte gap once k60 moves into the hole at 228",
			[]crashx.Op{ins(10, 64), ins(20, 64), ins(30, 64), ins(40, 64), ins(50, 64), ins(60, 64)},
			[]int{20, 40}, ins(65, 113), 1, true),
		build("middle", "57-byte cells but k60 (127 bytes) and k70 (47), content at 53; holes at 398 and 284; "+
			"k30 grows to 100 bytes once k50 moves from 227 into the hole at 398, beside the hole at 284",
			[]crashx.Op{ins(10, 50), ins(20, 50), ins(30, 50), ins(40, 50), ins(50, 50), ins(60, 120), ins(70, 40)},
			[]int{20, 40}, op(crashx.OpUpdate, 30, 93), 1, false),
		build("two-cell", "100-byte cells k10, k40 and k70 around pairs of 40-byte ones, content at 52; holes at 412 and 232; "+
			"a 170-byte cell once k60 and k50 move from [152,232) into the hole at 412",
			[]crashx.Op{ins(10, 93), ins(20, 33), ins(30, 33), ins(40, 93), ins(50, 33), ins(60, 33), ins(70, 93)},
			[]int{10, 40}, ins(45, 163), 2, false),
	}
}

// planOf replays the last write of r against the committed leaf image img on
// a page of its own and reports the move the planner picks: the cells it
// relocates and whether its window starts at the content pointer.
func planOf(t *testing.T, r relocation, img []byte) (moved int, edge bool) {
	t.Helper()
	p, err := slotted.Open(&slotted.MemBuf{Buf: append([]byte(nil), img...)})
	if err != nil {
		t.Fatal(err)
	}
	p.SetDeferFrees(true)
	i, found := p.Search([]byte(r.key))
	if found {
		err = p.Update(i, bytes.Repeat([]byte{'x'}, r.vlen))
	} else {
		err = p.InsertAt(i, []byte(r.key), bytes.Repeat([]byte{'x'}, r.vlen))
	}
	if !errors.Is(err, slotted.ErrNeedsDefrag) {
		t.Fatalf("the last write: %v, want a page that needs defragmentation", err)
	}
	content := p.Header().Content
	before := append([]uint16(nil), p.Header().Offsets...)
	lo, _, ok := p.Relocate(r.size)
	if !ok {
		t.Fatal("no move planned")
	}
	for i, o := range p.Header().Offsets {
		if o != before[i] {
			moved++
		}
	}
	return moved, lo == int(content)
}

// TestRelocationCrashSweep arms every crash point of three FAST+ workloads
// whose last transaction gives a fragmented leaf room by moving cells and
// installing the moved header in place before its write retries: a window
// at the content pointer and one in the middle of the page, one cell moved
// and two. Every crash point is swept with nothing, everything and two
// halves of the dirty lines surviving, and again with a second crash at
// every point inside recovery; the exact-state oracle must hold, and every
// page the tree reaches must then pass checkFreeSpace and CheckFreeList.
func TestRelocationCrashSweep(t *testing.T) {
	for _, r := range relocations() {
		t.Run(r.name, func(t *testing.T) {
			var last *fast.Store
			cfg := unitSweep(fast.InPlaceCommit, r.ops, r.units, &last)
			cfg.Lotteries = 2
			check := cfg.Check
			cfg.Check = func(got map[string]string, acked int) error {
				if err := check(got, acked); err != nil {
					return err
				}
				if bad := damagedPages(t, last); len(bad) > 0 {
					return fmt.Errorf("free lists fail their check on pages %v", bad)
				}
				return nil
			}
			total, marks := measureTxns(t, cfg, &last)
			n := len(marks) - 2 // the last transaction
			if d := marks[n+1].Relocations - marks[n].Relocations; d != 1 || marks[n+1].Defrags != marks[n].Defrags || marks[n+1].Splits != 0 {
				t.Fatalf("the last transaction made %d moves and %d page copies, want one move (%s)",
					d, marks[n+1].Defrags-marks[n].Defrags, r.description)
			}
			if moved, edge := planOf(t, r, marks[n].root); moved != r.moved || edge != r.edge {
				t.Fatalf("the move relocates %d cells, window at the content pointer %v; want %d, %v (%s)",
					moved, edge, r.moved, r.edge, r.description)
			}
			exploreAll(t, cfg, total)
		})
	}
}

// TestRelocationInstallAbortFallsBack makes the HTM write that would install
// a move abort every time. The committed leaf must keep its cells where they
// were, its free list must pass its check (repaired if the move's carving
// broke it), and the write must complete by copying the page instead.
func TestRelocationInstallAbortFallsBack(t *testing.T) {
	r := relocations()[0]
	abort := false
	gcfg := sweepGeometry(fast.InPlaceCommit)
	gcfg.HTM = htm.DefaultConfig()
	gcfg.HTM.InjectAbort = func() bool { return abort }
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := fast.Create(sys, gcfg)
	tree := btree.New(st)
	last := len(r.ops) - 1
	for i := range r.ops[:last] {
		if err := crashx.Apply(tree, &r.ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	leaf := st.CommittedRoot()
	committed := func() *slotted.Page {
		p, err := slotted.Open(&slotted.MemBuf{Buf: pageImage(t, st, leaf)})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cells := committed()
	abort = true
	s0 := st.Stats()
	tx, err := tree.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(r.ops[last].Key, r.ops[last].Val); err != nil {
		t.Fatal(err)
	}
	p := committed()
	for i := 0; i < cells.NCells(); i++ {
		if o := p.Header().Offsets[i]; o != cells.Header().Offsets[i] ||
			!bytes.Equal(p.Key(i), cells.Key(i)) || !bytes.Equal(p.Value(i), cells.Value(i)) {
			t.Fatalf("committed cell %d changed by an aborted move", i)
		}
	}
	if err := p.CheckFreeList(); err != nil {
		t.Fatalf("committed free list after the aborted move: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	// The moved cell went into the list head, whose header it overwrote: the
	// committed list needed its repair.
	if s.Relocations != s0.Relocations || s.Defrags != s0.Defrags+1 || s.FreeListFixes != 1 || st.HTMStats().SpuriousAborts == 0 {
		t.Fatalf("%d moves, %d page copies, %d free-list repairs, %d aborts; want no move, one copy and one repair after an aborted install",
			s.Relocations-s0.Relocations, s.Defrags-s0.Defrags, s.FreeListFixes, st.HTMStats().SpuriousAborts)
	}
	want := crashx.ModelAt(r.ops, len(r.ops))
	if got, err := contents(st); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after the fallback: %v, or wrong contents", err)
	}
}
