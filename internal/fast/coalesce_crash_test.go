package fast_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/crashx"
	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// sweepGeometry is small enough that every replay's fresh arena is cheap and
// large enough for crashx.FragWorkload's 512-byte leaves.
func sweepGeometry(v fast.Variant) fast.Config {
	return fast.Config{PageSize: 512, MaxPages: 64, LogBytes: 8 << 10, Variant: v}
}

// pageImage copies the coherent (cache over medium) image of page no.
func pageImage(t testing.TB, st *fast.Store, no uint32) []byte {
	img := make([]byte, st.PageSize())
	if _, err := st.PeekCommitted(no, 0, img); err != nil {
		t.Fatal(err)
	}
	return img
}

// damagedPages returns the slotted pages whose free list fails its check
// against their own header, straight off the store's image.
func damagedPages(t testing.TB, st *fast.Store) map[uint32]bool {
	bad := map[uint32]bool{}
	for no := uint32(1); no < st.Meta().NPages; no++ {
		p, err := slotted.Open(&slotted.MemBuf{Buf: pageImage(t, st, no)})
		if err != nil || (p.Type() != slotted.TypeLeaf && p.Type() != slotted.TypeInterior) {
			continue // never formatted, or freed mid-format: not a page anyone opens
		}
		if p.CheckFreeList() != nil {
			bad[no] = true
		}
	}
	return bad
}

// freeBlockSizes maps the offset of every block on a page image's free list
// to its size (an unreadable list yields what could be read).
func freeBlockSizes(img []byte) map[uint16]uint16 {
	out := map[uint16]uint16{}
	for cur := binary.LittleEndian.Uint16(img[8:]); cur != 0 && int(cur)+4 <= len(img) && len(out) < len(img); {
		out[cur] = binary.LittleEndian.Uint16(img[cur:])
		cur = binary.LittleEndian.Uint16(img[cur+2:])
	}
	return out
}

// contents validates the tree and returns what it holds. Nothing is
// deferred: when a crash fires in here the machine is dead, and a Rollback
// run on the way out would write to it after its last moment.
func contents(st pager.Store) (map[string]string, error) {
	tx, err := btree.New(st).Begin()
	if err != nil {
		return nil, err
	}
	got := map[string]string{}
	err = tx.Validate()
	if err == nil {
		err = tx.Scan(nil, nil, func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		})
	}
	tx.Rollback()
	return got, err
}

// TestCoalesceCrashSweep arms every crash point of a workload that
// coalesces, absorbs into the gap and writes deferred free blocks back after
// commit, under FAST and FAST+, with nothing, everything and half of the
// dirty lines surviving, and again with a second crash at every point inside
// recovery. Every schedule must recover to a transaction boundary with a
// valid tree, and every free list the crash left inconsistent must be
// repaired exactly once.
func TestCoalesceCrashSweep(t *testing.T) {
	for _, v := range []fast.Variant{fast.InPlaceCommit, fast.SlotHeaderLogging} {
		t.Run(v.String(), func(t *testing.T) {
			gcfg := sweepGeometry(v)
			var (
				recovered *fast.Store     // the store the oracle is about to read
				damaged   map[uint32]bool // its inconsistent free lists, before the oracle's lazy repairs
			)
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
					if err := ns.Recover(); err != nil {
						return nil, err
					}
					recovered, damaged = ns, damagedPages(t, ns)
					return ns, nil
				},
				Workload:  crashx.FragWorkload(20),
				Lotteries: 1,
				Nested:    true,
				Seed:      1,
				// The oracle has validated and scanned the whole tree by now:
				// every reachable page was opened, checked and, if need be,
				// repaired in place.
				Check: func(map[string]string, int) error {
					if recovered == nil {
						return nil // the explorer's uncrashed measuring run
					}
					still := damagedPages(t, recovered)
					repaired := 0
					for no := range damaged {
						if !still[no] {
							repaired++
						}
					}
					for no := range still {
						if !damaged[no] {
							return fmt.Errorf("page %d's free list broke during recovery's own reads", no)
						}
					}
					if fixes := recovered.Stats().FreeListFixes; fixes != int64(repaired) {
						return fmt.Errorf("FreeListFixes = %d, but %d of %d damaged pages were repaired",
							fixes, repaired, len(damaged))
					}
					return nil
				},
			}

			// The workload must contain what the sweep is for.
			sys, st := cfg.Open()
			base := sys.CrashPoints()
			tree := btree.New(st)
			for i := range cfg.Workload {
				if err := crashx.Apply(tree, &cfg.Workload[i]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if s := st.(*fast.Store).Stats(); i == crashx.FragScripted-1 && (s.Coalesces != 2 || s.GapAbsorbs != 1 || s.EdgeAbsorbs != 1 || s.Defrags+s.Splits != 0) {
					t.Fatalf("scripted prefix: %+v, want a merge, an edge absorb, a gap absorb and no page copy", s)
				}
			}
			total := sys.CrashPoints() - base

			// Which crash points fall into the two windows the change opened?
			// Replay to each point and look at the image the program had
			// written by then — before any line is lost — beside the image at
			// the start of the interrupted transaction.
			var beforeCommit, beforeBlockWrite int
			repairAt, repairOps := int64(-1), 0 // the first point of the second window, and the transactions begun by then
			for p := int64(0); p < total; p++ {
				sys, st := cfg.Open()
				fst := st.(*fast.Store)
				tree := btree.New(st)
				var start map[uint32][]byte
				begun := 0
				sys.CrashAfter(p)
				sys.RunToCrash(func() {
					for i := range cfg.Workload {
						start = map[uint32][]byte{}
						for no := uint32(1); no < fst.Meta().NPages; no++ {
							start[no] = pageImage(t, fst, no)
						}
						begun++
						_ = crashx.Apply(tree, &cfg.Workload[i])
					}
				})
				sys.DisarmCrash()
				for no, was := range start {
					now := pageImage(t, fst, no)
					hdrLen := slotted.HeaderFixedSize + 2*int(binary.LittleEndian.Uint16(was[2:]))
					if bytes.Equal(now[:hdrLen], was[:hdrLen]) {
						// Header not installed: uncommitted. A block that grew
						// can only be a coalescing merge.
						sizes := freeBlockSizes(now)
						for off, sz := range freeBlockSizes(was) {
							if sizes[off] > sz {
								beforeCommit++
								break
							}
						}
					} else if pg, err := slotted.Open(&slotted.MemBuf{Buf: now}); err == nil && pg.CheckFreeList() != nil {
						// Header installed, and it names a free block that is
						// not there yet.
						beforeBlockWrite++
						if repairAt < 0 {
							repairAt, repairOps = p, begun
						}
					}
				}
			}
			if beforeCommit == 0 || beforeBlockWrite == 0 {
				t.Fatalf("of %d crash points, %d lie between a coalescing write and its commit and %d between a commit and its free-block write: the sweep misses a window",
					total, beforeCommit, beforeBlockWrite)
			}

			// The explorer's nested crashes interrupt Recover, not the lazy
			// free-list repair, which runs in the first transaction to open
			// the page. Crash at the first point of the second window, then
			// at every point of that transaction.
			damagedStore := func() (*pmem.System, *fast.Store) {
				sys, st := cfg.Open()
				tree := btree.New(st)
				sys.CrashAfter(repairAt)
				sys.RunToCrash(func() {
					for i := range cfg.Workload {
						_ = crashx.Apply(tree, &cfg.Workload[i])
					}
				})
				sys.DisarmCrash()
				sys.Crash(pmem.EvictAll)
				ns, err := cfg.Reattach(st)
				if err != nil {
					t.Fatal(err)
				}
				return sys, ns.(*fast.Store)
			}
			want := crashx.ModelAt(cfg.Workload, repairOps) // the interrupted transaction had committed
			sys, ds := damagedStore()
			if len(damaged) == 0 {
				t.Fatalf("crash point %d left no free list to repair", repairAt)
			}
			repairBase := sys.CrashPoints()
			if got, err := contents(ds); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("recovery at point %d: %v, or wrong contents", repairAt, err)
			}
			repairPoints := sys.CrashPoints() - repairBase
			if repairPoints == 0 || ds.Stats().FreeListFixes == 0 {
				t.Fatalf("reading a damaged store made %d crash points and %d repairs", repairPoints, ds.Stats().FreeListFixes)
			}
			for q := int64(0); q < repairPoints; q++ {
				for _, evict := range []pmem.CrashOptions{pmem.EvictNone, pmem.EvictAll, {Seed: q + 1, EvictProb: 0.5}} {
					sys, ds := damagedStore()
					sys.CrashAfter(q)
					if !sys.RunToCrash(func() { _, _ = contents(ds) }) {
						t.Fatalf("repair crash point %d of %d did not fire", q, repairPoints)
					}
					sys.DisarmCrash()
					sys.Crash(evict)
					ns, err := cfg.Reattach(ds)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := contents(ns); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("crash at repair point %d (evict %+v): %v, or wrong contents", q, evict, err)
					}
				}
			}

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
			t.Logf("%d crash points (%d after a coalescing write and before its commit, %d after a commit and before its free-block write), %d runs, %d of them nested; %d crash points inside a free-list repair",
				total, beforeCommit, beforeBlockWrite, rep.Runs, rep.NestedRuns, repairPoints)
		})
	}
}
