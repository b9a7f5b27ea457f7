package fast_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/htm"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// machineState is what the simulated machine shows after one step of the
// header-cache churn.
type machineState struct {
	now    int64
	points int64
	stats  fast.Stats
	pm     pmem.Stats
}

// churnTally counts what a header-cache churn went through, so the tests
// can check it reached every path that writes a slot header.
type churnTally struct {
	commits, rollbacks, failed, crashes, recovers int
	cachedChecks                                  int // coherence checks that found a cached header
	freeStack                                     int // steps that ended with a freed page on the free stack
	splits, copies, relocations, repairs          int64
}

func (c *churnTally) add(s fast.Stats) {
	c.splits += s.Splits
	c.copies += s.Defrags
	c.relocations += s.Relocations
	c.repairs += s.FreeListFixes
}

func (c *churnTally) sum(d churnTally) {
	c.commits += d.commits
	c.rollbacks += d.rollbacks
	c.failed += d.failed
	c.crashes += d.crashes
	c.recovers += d.recovers
	c.freeStack += d.freeStack
	c.add(fast.Stats{Splits: d.splits, Defrags: d.copies, Relocations: d.relocations, FreeListFixes: d.repairs})
}

// checkCachedHeaders compares every header st's table holds decoded with
// the header PM holds for that page, read with PeekCommitted so that the
// check charges nothing.
func checkCachedHeaders(st *fast.Store) (int, error) {
	cached := fast.CachedHeaders(st)
	for no, h := range cached {
		var prefix [slotted.HeaderFixedSize]byte
		if _, err := st.PeekCommitted(no, 0, prefix[:]); err != nil {
			return 0, err
		}
		img := make([]byte, slotted.HeaderFixedSize+2*int(binary.LittleEndian.Uint16(prefix[2:])))
		if _, err := st.PeekCommitted(no, 0, img); err != nil {
			return 0, err
		}
		want, err := slotted.DecodeHeader(img, st.PageSize())
		if err != nil {
			return 0, fmt.Errorf("page %d: %w", no, err)
		}
		if h.Type != slotted.TypeInterior {
			return 0, fmt.Errorf("page %d: cached header of type %#x", no, h.Type)
		}
		if !reflect.DeepEqual(h, want) {
			return 0, fmt.Errorf("page %d: cached header %+v, PM holds %+v", no, h, want)
		}
	}
	return len(cached), nil
}

// headerCacheChurn runs seeded churn on 512-byte pages and a page space
// small enough to run out: multi-op transactions of resizing puts and
// deletes (splits, copy-on-write defragmentation, FAST+ relocations, pages
// freed by emptied leaves), HTM installs that abort at random, transactions
// rolled back after they changed pages or after the page space ran out, and
// crashes both between transactions (the same store recovers) and inside
// them (a reattached store recovers). After every step it calls check, and
// it returns the machine's state after every step. With drop set it empties
// the header cache before every Begin.
func headerCacheChurn(t *testing.T, v fast.Variant, seed int64, drop bool, check func(*fast.Store)) ([]machineState, churnTally) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	abortRng := rand.New(rand.NewSource(seed + 1000))
	hcfg := htm.DefaultConfig()
	hcfg.MaxRetries = 2
	hcfg.InjectAbort = func() bool { return abortRng.Intn(4) == 0 }
	cfg := fast.Config{PageSize: 512, MaxPages: 64, Variant: v, HTM: hcfg}
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := fast.Create(sys, cfg)
	tree := btree.New(st)
	var trace []machineState
	var tally churnTally
	record := func() {
		check(st)
		if st.Meta().FreeCount > 0 {
			tally.freeStack++
		}
		trace = append(trace, machineState{sys.Clock().Now(), sys.CrashPoints(), st.Stats(), st.Arena().Stats()})
	}
	reattach := func() {
		tally.add(st.Stats())
		var err error
		if st, err = fast.Attach(st.Arena(), cfg); err != nil {
			t.Fatal(err)
		}
		if err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		tree = btree.New(st)
	}
	for step := 0; step < 600; step++ {
		if drop {
			fast.DropHeaderCache(st)
		}
		tx, err := tree.Begin()
		if err != nil {
			t.Fatal(err)
		}
		var opErr error
		run := func() {
			for op := 0; op < 1+rng.Intn(4) && opErr == nil; op++ {
				key := []byte(fmt.Sprintf("k%04d", rng.Intn(800)))
				if rng.Intn(3) == 0 {
					if opErr = tx.Delete(key); errors.Is(opErr, btree.ErrKeyNotFound) {
						opErr = nil
					}
				} else {
					opErr = tx.Put(key, bytes.Repeat([]byte{byte(step)}, 8+rng.Intn(56)))
				}
				tx.MarkUnit()
			}
		}
		switch u := rng.Intn(20); {
		case u == 0: // a crash inside the transaction, a lottery over its dirty lines
			sys.CrashAfter(int64(rng.Intn(60)))
			if sys.RunToCrash(func() {
				if run(); opErr == nil {
					opErr = tx.Commit()
				}
			}) {
				sys.Crash(pmem.CrashOptions{Seed: seed + int64(step), EvictProb: 0.5})
				reattach()
				tally.crashes++
				record()
				continue
			}
			sys.DisarmCrash()
			if opErr != nil {
				tx.Rollback()
			}
		default:
			run()
			switch {
			case opErr != nil:
				if !errors.Is(opErr, pager.ErrFull) {
					t.Fatalf("seed %d step %d: %v", seed, step, opErr)
				}
				tx.Rollback()
				tally.failed++
			case u < 3:
				tx.Rollback()
				tally.rollbacks++
			default:
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				tally.commits++
			}
		}
		if rng.Intn(40) == 0 { // power fails between transactions: PM holds every commit
			sys.Crash(pmem.EvictNone)
			if err := st.Recover(); err != nil {
				t.Fatal(err)
			}
			if n := len(fast.CachedHeaders(st)); n != 0 {
				t.Fatalf("seed %d step %d: %d headers cached after Recover", seed, step, n)
			}
			tally.recovers++
		}
		record()
	}
	tally.add(st.Stats())
	return trace, tally
}

// TestHeaderCacheCoherent checks, after every step of the churn, that each
// interior header the store holds decoded is the header PM holds.
func TestHeaderCacheCoherent(t *testing.T) {
	for _, v := range []fast.Variant{fast.SlotHeaderLogging, fast.InPlaceCommit} {
		var total churnTally
		for seed := int64(1); seed <= 6; seed++ {
			_, tally := headerCacheChurn(t, v, seed, false, func(st *fast.Store) {
				n, err := checkCachedHeaders(st)
				if err != nil {
					t.Fatalf("%s seed %d: %v", v, seed, err)
				}
				if n > 0 {
					total.cachedChecks++
				}
			})
			total.sum(tally)
		}
		t.Logf("%s: %+v", v, total)
		if total.cachedChecks == 0 || total.commits == 0 || total.rollbacks == 0 || total.failed == 0 ||
			total.crashes == 0 || total.recovers == 0 || total.freeStack == 0 || total.repairs == 0 ||
			total.splits == 0 || total.copies == 0 || (v == fast.InPlaceCommit && total.relocations == 0) {
			t.Fatalf("%s: the churn missed a path: %+v", v, total)
		}
	}
}

// TestHeaderCacheChargesNothing runs the churn twice, the second time with
// the header cache emptied before every transaction, so that every open
// decodes its page from PM. The simulated machine must not tell the runs
// apart: after every step the clock, the crash-point count, the scheme's
// counters and the arena's are the same.
func TestHeaderCacheChargesNothing(t *testing.T) {
	for _, v := range []fast.Variant{fast.SlotHeaderLogging, fast.InPlaceCommit} {
		for seed := int64(1); seed <= 4; seed++ {
			cached, _ := headerCacheChurn(t, v, seed, false, func(*fast.Store) {})
			decoded, _ := headerCacheChurn(t, v, seed, true, func(*fast.Store) {})
			if len(cached) != len(decoded) {
				t.Fatalf("%s seed %d: %d steps cached, %d decoded", v, seed, len(cached), len(decoded))
			}
			for i := range cached {
				if cached[i] != decoded[i] {
					t.Fatalf("%s seed %d step %d:\ncached  %+v\ndecoded %+v", v, seed, i, cached[i], decoded[i])
				}
			}
		}
	}
}
