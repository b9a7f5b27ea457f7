package fasp

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"fasp/internal/fast"
)

// TestChurnCostPin is the tier-1 guard on what in-page free-space management
// costs: the gated benchmark's kv-write mix (35% insert of a new key, 30%
// update of a live key with a freshly drawn value length, 35% delete of a
// live key; 8-byte keys, values uniform over 32..256 bytes) run for 20 000
// operations over 2 000 preloaded records on the default FAST+ store, with
// upper bounds on copy-on-write defragmentations per thousand operations and
// on clflush calls per write. bench/ is its own module and is not reached by
// `go test ./...`; this is. The bounds sit about 10% above the measured
// values (19.70 and 5.587) — where they were 46.85 and 8.511 before
// first-fit failures coalesced the free list and the free-list fields rode
// the commit image, and 19.55 and 6.437 before each line was flushed once
// and only changed bytes were written back — so they catch a regression of
// either half, not noise: the simulated machine is deterministic.
func TestChurnCostPin(t *testing.T) {
	const (
		preload, ops     = 2000, 20000
		maxDefragsPerKop = 21.5
		maxFlushPerWrite = 6.2
	)
	kv, err := OpenKV(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 256)
	rng.Read(val)
	key := func(id uint64) []byte {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], id*0x9E3779B97F4A7C15) // odd multiplier: a bijection
		return k[:]
	}
	var live []uint64
	next := uint64(0)
	insert := func() {
		if err := kv.Insert(key(next), val[:32+rng.Intn(225)]); err != nil {
			t.Fatalf("insert %d: %v", next, err)
		}
		live = append(live, next)
		next++
	}
	for next < preload {
		insert()
	}
	stats := func() fast.Stats { return kv.RawStore().(*fast.Store).Stats() }
	s0, f0, m0 := stats(), kv.PMStats().FlushCalls, kv.Metrics().Events
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 35 || len(live) == 0:
			insert()
		case r < 65:
			if err := kv.Put(key(live[rng.Intn(len(live))]), val[:32+rng.Intn(225)]); err != nil {
				t.Fatalf("op %d: put: %v", i, err)
			}
		default:
			at := rng.Intn(len(live))
			if err := kv.Delete(key(live[at])); err != nil {
				t.Fatalf("op %d: delete: %v", i, err)
			}
			live[at] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	s1, f1, m1 := stats(), kv.PMStats().FlushCalls, kv.Metrics().Events
	if n, err := kv.Count(); err != nil || n != len(live) {
		t.Fatalf("count = %d (%v), want %d", n, err, len(live))
	}
	if err := kv.Validate(); err != nil {
		t.Fatal(err)
	}
	defragsPerKop := float64(s1.Defrags-s0.Defrags) / (ops / 1000)
	flushPerWrite := float64(f1-f0) / ops
	t.Logf("%.2f defrags/kop, %.3f clflush/write, %d coalesces, %d gap absorbs",
		defragsPerKop, flushPerWrite, s1.Coalesces-s0.Coalesces, s1.GapAbsorbs-s0.GapAbsorbs)
	if defragsPerKop > maxDefragsPerKop {
		t.Errorf("%.2f defragmentations per 1000 ops, pinned at %.1f", defragsPerKop, maxDefragsPerKop)
	}
	if flushPerWrite > maxFlushPerWrite {
		t.Errorf("%.3f clflush per write, pinned at %.2f", flushPerWrite, maxFlushPerWrite)
	}
	if s1.Coalesces == s0.Coalesces || s1.GapAbsorbs == s0.GapAbsorbs {
		t.Error("the churn never coalesced a free list or never absorbed a block into the gap")
	}
	// The same events, as an operator sees them.
	if d, c := m1.Defrag-m0.Defrag, m1.Coalesce-m0.Coalesce; d != s1.Defrags-s0.Defrags || c != s1.Coalesces-s0.Coalesces {
		t.Errorf("Metrics().Events says %d defrags and %d coalesces, the store %d and %d",
			d, c, s1.Defrags-s0.Defrags, s1.Coalesces-s0.Coalesces)
	}
}
