package fast_test

import (
	"fmt"
	"strings"
	"testing"

	"fasp/internal/crashx"
	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
)

// writeBackWorkload builds the transactions TestWriteBackCrashSweep arms,
// for one 512-byte leaf of 3-byte keys (a cell is 7 bytes longer than its
// value), with the units that group them: each line below is one
// transaction, and the state it leaves is the next one's starting point.
func writeBackWorkload() ([]crashx.Op, [][]int) {
	ins := func(k, vlen int) crashx.Op {
		return crashx.Op{Kind: crashx.OpInsert, Key: []byte(fmt.Sprintf("k%02d", k)), Val: []byte(strings.Repeat(string(rune('a'+k%26)), vlen))}
	}
	upd := func(k, vlen int) crashx.Op { op := ins(k, vlen); op.Kind = crashx.OpUpdate; return op }
	del := func(k int) crashx.Op { return crashx.Op{Kind: crashx.OpDelete, Key: []byte(fmt.Sprintf("k%02d", k))} }
	txns := [][]crashx.Op{
		// Seven 66-byte cells, k10 at 446 down to k70 at 50, the content pointer.
		{ins(10, 59), ins(20, 59), ins(30, 59), ins(40, 59), ins(50, 59), ins(60, 59), ins(70, 59)},
		{del(30)},     // the list head: a 66-byte block at 314
		{ins(35, 33)}, // 40 bytes, more than the gap's 22: carved from the head's front, the remainder at 354
		{del(70)},     // the lowest cell: back to the gap at commit, the content pointer to 116
		// The lowest cell freed and a cell carved from the gap by the same
		// transaction: until it commits, the freed cell is a committed record
		// the new one must not land on.
		{del(60), ins(65, 43)},
		// A middle key inserted and deleted again: the offset array shifts and
		// shifts back, and under FAST the second frame, which differs from the
		// committed header only in Content and Free, must still cover the
		// first frame's offsets.
		{ins(15, 20), del(15)},
		// Grow the leaf past one page.
		{ins(80, 100), ins(85, 100), ins(90, 100), ins(95, 100)},
		// One unit writing two leaves commits through the log under FAST+ too;
		// the first key's frame ends after its offset.
		{upd(10, 30), upd(95, 60)},
	}
	var ops []crashx.Op
	var units [][]int
	for _, txn := range txns {
		ops = append(ops, txn...)
		units = append(units, []int{len(txn)})
	}
	return ops, units
}

// unitSweep returns the exploration of ops, grouped by units, on a fresh
// sweepGeometry store of variant v for every replay, with nothing,
// everything and half of the dirty lines surviving each crash and a second
// crash at every point inside recovery; *last is the latest replay's store.
func unitSweep(v fast.Variant, ops []crashx.Op, units [][]int, last **fast.Store) *crashx.Config {
	gcfg := sweepGeometry(v)
	return &crashx.Config{
		Open: func() (*pmem.System, pager.Store) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			*last = fast.Create(sys, gcfg)
			return sys, *last
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
}

// measureTxns runs cfg's workload once uncrashed and returns its crash-point
// count and the store's stats at every transaction start and at the end.
func measureTxns(t *testing.T, cfg *crashx.Config, last **fast.Store) (int64, []fast.Stats) {
	t.Helper()
	var marks []fast.Stats
	cfg.AtOp = func(int, pager.Store) (pager.Store, error) {
		marks = append(marks, (*last).Stats())
		return nil, nil
	}
	total, err := crashx.Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AtOp = nil
	return total, append(marks, (*last).Stats())
}

// exploreAll arms every one of the total crash points of cfg.
func exploreAll(t *testing.T, cfg *crashx.Config, total int64) {
	t.Helper()
	rep, err := crashx.Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s → %s", len(rep.Failures), rep.Failures[0].Spec, rep.Failures[0].Err)
	}
	if rep.Enumerated != int(rep.TotalPoints) || rep.TotalPoints != total {
		t.Fatalf("not every crash point was armed: %+v (measured %d)", rep, total)
	}
	t.Logf("%d crash points, %d runs, %d of them nested", total, rep.Runs, rep.NestedRuns)
}

// TestWriteBackCrashSweep arms every crash point of writeBackWorkload under
// FAST+ and FAST (unitSweep). The workload is built to reach the three write
// paths that skip bytes already in PM: a deferred free at the content pointer
// returned to the gap at commit with no block header written, a cell carved
// from the front of the free-list head, and logged commits whose frames end
// before their headers do, each checkpointing only the lines that changed.
func TestWriteBackCrashSweep(t *testing.T) {
	ops, units := writeBackWorkload()
	for _, v := range []fast.Variant{fast.InPlaceCommit, fast.SlotHeaderLogging} {
		t.Run(v.String(), func(t *testing.T) {
			var last *fast.Store
			cfg := unitSweep(v, ops, units, &last)
			// Each transaction takes the path it is built for.
			total, marks := measureTxns(t, cfg, &last)
			delta := func(txn int) fast.Stats {
				a, b := marks[txn], marks[txn+1]
				return fast.Stats{HeadCarves: b.HeadCarves - a.HeadCarves, EdgeAbsorbs: b.EdgeAbsorbs - a.EdgeAbsorbs,
					LogCommits: b.LogCommits - a.LogCommits, TrimmedBytes: b.TrimmedBytes - a.TrimmedBytes}
			}
			if d := delta(2); d.HeadCarves != 1 {
				t.Fatalf("transaction 2 carved %d cells from the list head, want 1", d.HeadCarves)
			}
			for _, txn := range []int{3, 5} {
				if d := delta(txn); d.EdgeAbsorbs != 1 {
					t.Fatalf("transaction %d returned %d freed cells to the gap at commit, want 1", txn, d.EdgeAbsorbs)
				}
			}
			if d := delta(4); d.EdgeAbsorbs != 0 {
				t.Fatalf("transaction 4 returned a freed cell to the gap below a cell it carved from there")
			}
			if d := delta(7); d.LogCommits != 1 || d.TrimmedBytes == 0 {
				t.Fatalf("transaction 7: %d log commits, %d header bytes left out of its frames; want 1 and some", d.LogCommits, d.TrimmedBytes)
			}
			if s := marks[len(marks)-1]; s.Splits+s.Defrags == 0 {
				t.Fatal("the workload never outgrew its first leaf")
			}
			exploreAll(t, cfg, total)
		})
	}
}

// TestShrunkHeaderCrashSweep arms every crash point of one transaction that
// grows a leaf's offset array, shrinks it by two entries, and then inserts a
// cell exactly as large as the gap below the shrunk array. Under FAST the
// first operation's frame logged the bytes just past the shrunk array, and
// recovery replays every frame in order: a cell carved there would have its
// first bytes overwritten by that frame's offsets, a torn tree after a crash
// between the commit mark and the log's truncation. Those bytes stay out of
// the gap instead, and the insert copies the page.
func TestShrunkHeaderCrashSweep(t *testing.T) {
	ins := func(k, vlen int) crashx.Op {
		return crashx.Op{Kind: crashx.OpInsert, Key: []byte(fmt.Sprintf("k%02d", k)), Val: []byte(strings.Repeat(string(rune('a'+k%26)), vlen))}
	}
	del := func(k int) crashx.Op { return crashx.Op{Kind: crashx.OpDelete, Key: []byte(fmt.Sprintf("k%02d", k))} }
	ops := []crashx.Op{
		// Six 70-byte cells: the content pointer at 92, the header 26 bytes.
		ins(10, 63), ins(20, 63), ins(30, 63), ins(40, 63), ins(50, 63), ins(60, 63),
		// A 12-byte cell at 80 and a 28-byte header, then 24, then a cell of
		// the 54 bytes between the 26-byte header and 80.
		ins(15, 5), del(50), del(60), ins(70, 47),
	}
	units := [][]int{{6}, {4}}
	for _, v := range []fast.Variant{fast.InPlaceCommit, fast.SlotHeaderLogging} {
		t.Run(v.String(), func(t *testing.T) {
			var last *fast.Store
			cfg := unitSweep(v, ops, units, &last)
			total, marks := measureTxns(t, cfg, &last)
			want := int64(0) // FAST+ logs no frame before the commit point
			if v == fast.SlotHeaderLogging {
				want = 1
			}
			if got := marks[2].Defrags - marks[1].Defrags; got != want {
				t.Fatalf("the transaction copied its page %d times, want %d", got, want)
			}
			exploreAll(t, cfg, total)
		})
	}
}
