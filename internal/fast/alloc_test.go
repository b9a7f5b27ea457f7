package fast_test

import (
	"bytes"
	"fmt"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pmem"
)

// TestWarmChurnAllocs pins the write hot path: once the store's pooled page
// handles are warm, an insert / resize-update / delete transaction — frees
// deferred and applied after commit, the free list coalesced now and then —
// allocates its two transaction objects (btree.Tx, fast.Txn) and nothing
// else in slotted or fast. Dropping the deferred-free slice to nil after
// every commit used to cost each freeing transaction one more, and every
// free-block header written another.
func TestWarmChurnAllocs(t *testing.T) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := fast.Create(sys, fast.Config{PageSize: 1024, MaxPages: 256, Variant: fast.InPlaceCommit})
	tree := btree.New(st)
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%02d", i))
	}
	val := bytes.Repeat([]byte{7}, 100)
	live := make([]bool, len(keys))
	step := 0
	churn := func() {
		k := step * 5 % len(keys)
		var err error
		switch {
		case !live[k]:
			err, live[k] = tree.Insert(keys[k], val[:20+step%7*10]), true
		case step%3 == 0:
			err, live[k] = tree.Delete(keys[k]), false
		default:
			err = tree.Update(keys[k], val[:20+step%5*15])
		}
		step++
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for i := 0; i < 500; i++ {
		churn()
	}
	before := st.Stats()
	n := testing.AllocsPerRun(500, churn)
	after := st.Stats()
	if after.Coalesces == before.Coalesces || after.GapAbsorbs == before.GapAbsorbs || after.Defrags+after.Splits != 0 {
		t.Fatalf("the measured churn must coalesce and never copy a page: %+v -> %+v", before, after)
	}
	if n != 2 {
		t.Fatalf("warm churn allocates %v per transaction, want 2 (btree.Tx and fast.Txn)", n)
	}
}
