package fast_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"fasp/internal/crashx"
	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
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
		{del(30)},     // into an empty list: the sole free block, 66 bytes at 314, flagged at commit
		{ins(35, 33)}, // 40 bytes: carved from the sole head's front, the remainder (26 at 354) still sole
		{ins(25, 19)}, // 26 bytes: the sole head taken whole, the list empty again
		{del(70)},     // the lowest cell: back to the gap at commit, the content pointer to 116
		// A middle key inserted and deleted again: the offset array shifts and
		// shifts back, and under FAST the second frame, which differs from the
		// committed header only in Content and Free, must still cover the
		// first frame's offsets. The cell comes from the gap and goes back to it.
		{ins(15, 20), del(15)},
		// The lowest cell freed and a cell carved from the gap by the same
		// transaction: until it commits, the freed cell is a committed record
		// the new one must not land on. It becomes the sole block, at 116.
		{del(60), ins(65, 43)},
		// A second block joins the sole one: the block at 116 gets its header
		// after the commit point, and the list is 248 -> 116.
		{del(40)},
		// A third block joins: a list of more than one block takes no flag.
		{del(50)},
		// Grow the leaf past one page: the three blocks, address-adjacent at
		// 116, merge for the first cell.
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
// crash at every point inside recovery, and checkFreeSpace after the
// oracle; *last is the latest replay's store.
func unitSweep(v fast.Variant, ops []crashx.Op, units [][]int, last **fast.Store) *crashx.Config {
	gcfg := sweepGeometry(v)
	var recovered *fast.Store
	return &crashx.Config{
		Open: func() (*pmem.System, pager.Store) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			*last, recovered = fast.Create(sys, gcfg), nil
			return sys, *last
		},
		Reattach: func(st pager.Store) (pager.Store, error) {
			ns, err := fast.Attach(st.(*fast.Store).Arena(), gcfg)
			if err != nil {
				return nil, err
			}
			recovered = ns
			return ns, ns.Recover()
		},
		Check: func(map[string]string, int) error {
			if recovered != nil {
				return checkFreeSpace(recovered)
			}
			return checkFreeSpace(*last) // the uncrashed measuring run
		},
		Workload:  ops,
		Units:     units,
		Lotteries: 1,
		Nested:    true,
		Seed:      1,
	}
}

// checkFreeSpace is the reference check on free space, run after the
// oracle, whose reads have repaired every free list the lazy check rejects.
// On every page the tree reaches, the header, the cells and the free-list
// blocks — a sole block as the slot header describes it, any other as its
// {size,next} header says — must claim disjoint bytes, and no cell or block
// may lie below the content pointer.
func checkFreeSpace(st *fast.Store) error {
	ps := st.PageSize()
	var todo []uint32
	if root := st.CommittedRoot(); root != 0 {
		todo = append(todo, root)
	}
	for len(todo) > 0 {
		no := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		img := make([]byte, ps)
		if _, err := st.PeekCommitted(no, 0, img); err != nil {
			return err
		}
		p, err := slotted.Open(&slotted.MemBuf{Buf: img})
		if err != nil {
			return fmt.Errorf("page %d: %v", no, err)
		}
		h := p.Header()
		owner := make([]byte, ps)
		claim := func(off, n int, who byte) error {
			if off+n > ps || (who != 'h' && off < int(h.Content)) {
				return fmt.Errorf("page %d: %c extent [%d,%d) outside [%d,%d)", no, who, off, off+n, h.Content, ps)
			}
			for i := off; i < off+n; i++ {
				if owner[i] != 0 {
					return fmt.Errorf("page %d: byte %d claimed by %c and %c", no, i, owner[i], who)
				}
				owner[i] = who
			}
			return nil
		}
		err = claim(0, h.EncodedLen(), 'h')
		for i := 0; err == nil && i < p.NCells(); i++ {
			n := 4 + len(p.Key(i))
			if p.Type() == slotted.TypeLeaf {
				n += len(p.Value(i))
			} else {
				n += 2
				todo = append(todo, p.Child(i))
			}
			err = claim(int(h.Offsets[i]), n, 'c')
		}
		if p.Type() == slotted.TypeInterior {
			todo = append(todo, p.Aux())
		}
		if h.Flags&slotted.FlagSoleFree != 0 {
			if err == nil {
				err = claim(int(h.FreeLst), int(h.Free), 'f')
			}
		} else {
			for cur, n := int(h.FreeLst), 0; err == nil && cur != 0; n++ {
				if n > ps || cur+4 > ps {
					return fmt.Errorf("page %d: free list leaves the page or loops", no)
				}
				err = claim(cur, int(binary.LittleEndian.Uint16(img[cur:])), 'f')
				cur = int(binary.LittleEndian.Uint16(img[cur+2:]))
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// txnMark is the store at a transaction boundary of a measuring run: its
// stats and the committed image of the root page (nil before the first
// commit).
type txnMark struct {
	fast.Stats
	root []byte
}

// measureTxns runs cfg's workload once uncrashed and returns its crash-point
// count and the store at every transaction start and at the end.
func measureTxns(t *testing.T, cfg *crashx.Config, last **fast.Store) (int64, []txnMark) {
	t.Helper()
	var marks []txnMark
	mark := func() {
		m := txnMark{Stats: (*last).Stats()}
		if root := (*last).CommittedRoot(); root != 0 {
			m.root = make([]byte, (*last).PageSize())
			if _, err := (*last).PeekCommitted(root, 0, m.root); err != nil {
				t.Fatal(err)
			}
		}
		marks = append(marks, m)
	}
	cfg.AtOp = func(int, pager.Store) (pager.Store, error) {
		mark()
		return nil, nil
	}
	total, err := crashx.Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AtOp = nil
	mark()
	return total, marks
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
// FAST+ and FAST (unitSweep). The workload is built to reach the write paths
// that skip bytes already in PM or that carry no information: a deferred free
// at the content pointer returned to the gap at commit with no block header
// written, a sole free block described by the commit image alone — flagged
// at commit, front-carved, taken whole — and its header written after the
// commit point once a second block joins it, and logged commits whose frames
// end before their headers do, each checkpointing only the lines that
// changed.
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
					Coalesces: b.Coalesces - a.Coalesces, LogCommits: b.LogCommits - a.LogCommits, TrimmedBytes: b.TrimmedBytes - a.TrimmedBytes}
			}
			if d := delta(2); d.HeadCarves != 1 {
				t.Fatalf("transaction 2 carved %d cells from the list head, want 1", d.HeadCarves)
			}
			for _, txn := range []int{4, 5} {
				if d := delta(txn); d.EdgeAbsorbs != 1 {
					t.Fatalf("transaction %d returned %d freed cells to the gap at commit, want 1", txn, d.EdgeAbsorbs)
				}
			}
			if d := delta(6); d.EdgeAbsorbs != 0 {
				t.Fatalf("transaction 6 returned a freed cell to the gap below a cell it carved from there")
			}
			u16 := binary.LittleEndian.Uint16
			for _, w := range []struct {
				txn        int
				sole       bool
				head, free uint16
			}{{1, true, 314, 66}, {2, true, 354, 26}, {3, false, 0, 0}, {6, true, 116, 66}, {7, false, 248, 132}, {8, false, 182, 198}} {
				img := marks[w.txn+1].root
				if sole := img[1]&slotted.FlagSoleFree != 0; sole != w.sole || u16(img[8:]) != w.head || u16(img[6:]) != w.free {
					t.Fatalf("after transaction %d: sole %v, list head %d, free %d; want %v, %d, %d",
						w.txn, sole, u16(img[8:]), u16(img[6:]), w.sole, w.head, w.free)
				}
			}
			if img := marks[8].root; u16(img[116:]) != 66 || u16(img[118:]) != 0 || u16(img[248:]) != 66 || u16(img[250:]) != 116 {
				t.Fatal("transaction 7 did not write the headers of the list 248 -> 116")
			}
			if d := delta(9); d.Coalesces == 0 {
				t.Fatal("transaction 9 did not merge the three blocks")
			}
			if d := delta(10); d.LogCommits != 1 || d.TrimmedBytes == 0 {
				t.Fatalf("transaction 10: %d log commits, %d header bytes left out of its frames; want 1 and some", d.LogCommits, d.TrimmedBytes)
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
