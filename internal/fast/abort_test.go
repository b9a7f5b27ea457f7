package fast_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pmem"
)

// TestUnfinishedTransactionsLeaveCommittedStateIntact runs seeded churn on
// 512-byte pages with value lengths that make transactions consume, merge
// and split free space, and leaves a share of the transactions unfinished:
// rolled back, or in flight when the machine crashes with every dirty line
// written back. Either way the committed records, the tree and every free
// list must be exactly what the last commit left, at once and for every
// later transaction.
//
// Two bugs older than coalescing failed this test. Rollback rebuilt a
// consumed free list without writing the rebuilt header fields back, so the
// next transaction walked the list from a stale head. And a split, which
// truncates the working offset array, let the next cell be carved out of the
// bytes the committed array still occupied.
func TestUnfinishedTransactionsLeaveCommittedStateIntact(t *testing.T) {
	for _, how := range []string{"rollback", "crash"} {
		t.Run(how, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := fast.Config{PageSize: 512, MaxPages: 256, Variant: fast.InPlaceCommit}
				if seed%2 == 0 {
					cfg.Variant = fast.SlotHeaderLogging
				}
				sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
				st := fast.Create(sys, cfg)
				tree := btree.New(st)
				want := map[string]string{}
				for step := 0; step < 250; step++ {
					key := []byte(fmt.Sprintf("k%04d", rng.Intn(60)))
					val := bytes.Repeat([]byte{byte(step)}, 8+rng.Intn(60))
					_, live := want[string(key)]
					del := live && rng.Intn(3) == 0
					tx, err := tree.Begin()
					if err != nil {
						t.Fatal(err)
					}
					if del {
						err = tx.Delete(key)
					} else {
						err = tx.Put(key, val)
					}
					if err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					switch {
					case rng.Intn(4) > 0:
						if err := tx.Commit(); err != nil {
							t.Fatal(err)
						}
						if del {
							delete(want, string(key))
						} else {
							want[string(key)] = string(val)
						}
					case how == "rollback":
						tx.Rollback()
					default:
						sys.Crash(pmem.EvictAll)
						if st, err = fast.Attach(st.Arena(), cfg); err != nil {
							t.Fatal(err)
						}
						if err := st.Recover(); err != nil {
							t.Fatal(err)
						}
						tree = btree.New(st)
					}
					got, err := contents(st)
					if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("seed %d step %d (%s): %v; %d records, want %d", seed, step, cfg.Variant, err, len(got), len(want))
					}
				}
			}
		})
	}
}
