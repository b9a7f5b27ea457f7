package fast_test

import (
	"bytes"
	"fmt"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pmem"
)

// TestReadOnlyRepairNeedsNoCommit: a lazy free-list repair found by a
// transaction that only reads is on the medium once the page's open returns
// — repairFreeList flushes it, and a flushed line has left the cache — so
// the read-only commit after it has nothing to order and adds no flush, no
// fence and no crash point. A crash at any point of the repair recovers to a
// valid tree with the same contents, and the leaf's free list is either
// repaired or still damaged; recovery re-arms the lazy check, so the next
// transaction to open the leaf repairs it again.
func TestReadOnlyRepairNeedsNoCommit(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	val := bytes.Repeat([]byte{7}, 40)
	for _, v := range []fast.Variant{fast.SlotHeaderLogging, fast.InPlaceCommit} {
		t.Run(v.String(), func(t *testing.T) {
			cfg := sweepGeometry(v)
			reattach := func(a *pmem.Arena) *fast.Store {
				st, err := fast.Attach(a, cfg)
				if err == nil {
					err = st.Recover()
				}
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			// damaged builds a one-leaf tree with a free block, clears the
			// leaf's FreeLst as a crash between a commit and its free-block
			// write would leave it, and recovers.
			var want map[string]string
			damaged := func() (*pmem.System, *fast.Store, uint32) {
				sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
				st := fast.Create(sys, cfg)
				tree := btree.New(st)
				for i := 0; i < 6; i++ {
					if err := tree.Insert(key(i), val); err != nil {
						t.Fatal(err)
					}
				}
				if err := tree.Delete(key(2)); err != nil {
					t.Fatal(err)
				}
				got, err := contents(st)
				if err != nil {
					t.Fatal(err)
				}
				want = got
				leaf := st.Meta().Root
				base := int64(leaf) * int64(cfg.PageSize)
				st.Arena().StoreU16(base+8, 0)
				st.Arena().Flush(base+8, 2)
				sys.Crash(pmem.EvictNone)
				st = reattach(st.Arena())
				if !damagedPages(t, st)[leaf] {
					t.Fatalf("leaf %d's free list is not damaged", leaf)
				}
				return sys, st, leaf
			}
			readOnly := func(st *fast.Store) error {
				tx, err := btree.New(st).Begin()
				if err != nil {
					return err
				}
				if _, ok, err := tx.Get(key(3)); err != nil || !ok {
					return fmt.Errorf("Get: %v %v", ok, err)
				}
				return tx.Commit()
			}

			sys, st, leaf := damaged()
			pm0, fences0, points0 := st.Arena().Stats(), sys.Fences(), sys.CrashPoints()
			tx, err := btree.New(st).Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := tx.Get(key(3)); err != nil || !ok {
				t.Fatalf("Get: %v %v", ok, err)
			}
			repairPoints := sys.CrashPoints() - points0
			if fixes := st.Stats().FreeListFixes; fixes != 1 || repairPoints == 0 {
				t.Fatalf("opening the leaf made %d repairs and %d crash points", fixes, repairPoints)
			}
			pm1, fences1 := st.Arena().Stats(), sys.Fences()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			d := st.Arena().Stats().Delta(pm1)
			if d.FlushCalls != 0 || d.LineWritebacks != 0 || sys.Fences() != fences1 || sys.CrashPoints() != points0+repairPoints {
				t.Fatalf("the read-only commit after a repair flushed %d, wrote back %d, fenced %d, ran %d crash points; want 0",
					d.FlushCalls, d.LineWritebacks, sys.Fences()-fences1, sys.CrashPoints()-points0-repairPoints)
			}
			if sys.Fences() != fences0 || st.Arena().Stats().Delta(pm0).LineWritebacks == 0 {
				t.Fatalf("the repair fenced %d times and wrote back nothing; want no fence and its lines written back", sys.Fences()-fences0)
			}
			sys.Crash(pmem.EvictNone)
			if st = reattach(st.Arena()); damagedPages(t, st)[leaf] {
				t.Fatal("the repair did not reach the medium before the commit returned")
			}

			outcomes := map[bool]int{} // still damaged after recovery → schedules
			for q := int64(0); q < repairPoints; q++ {
				for _, evict := range []pmem.CrashOptions{pmem.EvictNone, pmem.EvictAll, {Seed: q + 1, EvictProb: 0.5}} {
					sys, st, _ := damaged()
					sys.CrashAfter(q)
					if !sys.RunToCrash(func() { _ = readOnly(st) }) {
						t.Fatalf("repair crash point %d of %d did not fire", q, repairPoints)
					}
					sys.DisarmCrash()
					sys.Crash(evict)
					st = reattach(st.Arena())
					still := damagedPages(t, st)[leaf]
					outcomes[still]++
					if got, err := contents(st); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("crash at repair point %d (evict %+v): %v, or wrong contents", q, evict, err)
					}
					if fixes := st.Stats().FreeListFixes; (fixes == 1) != still || damagedPages(t, st)[leaf] {
						t.Fatalf("crash at repair point %d (evict %+v): damaged after recovery %v, %d repairs on reopening, damaged after that %v",
							q, evict, still, fixes, damagedPages(t, st)[leaf])
					}
				}
			}
			if outcomes[true] == 0 || outcomes[false] == 0 {
				t.Fatalf("of %d crash schedules, %d left the list damaged and %d repaired; the sweep misses one outcome",
					3*repairPoints, outcomes[true], outcomes[false])
			}
			t.Logf("%d crash points inside the repair; %d schedules left the list damaged, %d repaired",
				repairPoints, outcomes[true], outcomes[false])
		})
	}
}
