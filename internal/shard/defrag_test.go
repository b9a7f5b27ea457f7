package shard_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"fasp/internal/fast"
	"fasp/internal/shard"
)

// Mirrors of defrag.go's bounds, which the external test package cannot see.
const (
	window  = 32 // defragWindow: fault-free write rounds per measurement
	perSlot = 8  // defragPerSlot: leaves rewritten per pass
	maxHot  = 32 // maxHotLeaves: hot leaves one measurement queues
)

// fatVal is wide enough that deleting every other record leaves each leaf
// well past a 0.2 dead-byte threshold.
func fatVal(i int) []byte { return []byte(fmt.Sprintf("value-%06d-%032d", i, i)) }

// newDefragEngine opens a one-shard engine over the given FAST variant with
// proactive defrag at threshold th. With one shard both Do and ApplyBatch
// commit on the caller, so every call below is exactly one write round.
func newDefragEngine(t *testing.T, v fast.Variant, th float64, hook func(int)) *shard.Engine {
	t.Helper()
	cfg := testConfigVariant(1, 8, 0, v)
	cfg.DefragThreshold = th
	cfg.FaultHook = hook
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

const fragKeys = 600

// fragment spends two write rounds carving dead space into the shard's
// committed leaves: one ApplyBatch inserts fragKeys records, a second
// deletes every even one.
func fragment(t *testing.T, e *shard.Engine) {
	t.Helper()
	ops := make([]shard.Op, 0, fragKeys)
	for i := 0; i < fragKeys; i++ {
		ops = append(ops, shard.Op{Kind: shard.OpInsert, Key: key(i), Val: fatVal(i)})
	}
	applyAll(t, e, ops)
	ops = ops[:0]
	for i := 0; i < fragKeys; i += 2 {
		ops = append(ops, shard.Op{Kind: shard.OpDelete, Key: key(i)})
	}
	applyAll(t, e, ops)
}

func applyAll(t *testing.T, e *shard.Engine, ops []shard.Op) {
	t.Helper()
	for i, err := range e.ApplyBatch(ops) {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

// update rewrites live (odd) record r with a same-size value.
func update(r int) shard.Op {
	k := 2*(r%(fragKeys/2)) + 1
	return shard.Op{Kind: shard.OpUpdate, Key: key(k), Val: fatVal(k + 7000)}
}

func mustDo(t *testing.T, e *shard.Engine, op shard.Op) {
	t.Helper()
	if err := e.Do(op); err != nil {
		t.Fatalf("%s %q: %v", op.Kind, op.Key, err)
	}
}

// TestDefragWindowCadence pins the measurement cadence on both FAST commit
// paths: nothing is measured before the 32nd fault-free write round, the
// 32nd measures, the measurement stands until the 64th, and the leaves
// rewritten in between lower the ratio the 64th sees.
func TestDefragWindowCadence(t *testing.T) {
	for _, v := range []fast.Variant{fast.SlotHeaderLogging, fast.InPlaceCommit} {
		t.Run(v.String(), func(t *testing.T) {
			e := newDefragEngine(t, v, 0.2, nil)
			fragment(t, e)
			round := 2
			for round < window-1 {
				round++
				mustDo(t, e, update(round))
				if f := e.ShardFragmentation(0); f != -1 {
					t.Fatalf("round %d: measured %.3f before the window closed", round, f)
				}
			}
			round++
			mustDo(t, e, update(round))
			first := e.ShardFragmentation(0)
			if first < 0.2 {
				t.Fatalf("round %d: fragmentation %.3f, want >= 0.2 after deleting half the records", round, first)
			}
			if e.ShardInfo(0).DefragPages == 0 {
				t.Fatal("the window closed over hot leaves but rewrote none")
			}
			for round < 2*window-1 {
				round++
				mustDo(t, e, update(round))
				if f := e.ShardFragmentation(0); f != first {
					t.Fatalf("round %d: re-measured %.3f (was %.3f) inside a window", round, f, first)
				}
			}
			round++
			mustDo(t, e, update(round))
			if second := e.ShardFragmentation(0); second < 0 || second >= first {
				t.Fatalf("round %d: fragmentation %.3f, want in [0, %.3f) after the rewrites", round, second, first)
			}
			if err := e.Validate(); err != nil {
				t.Fatal(err)
			}
			if c, err := e.Count(); err != nil || c != fragKeys/2 {
				t.Fatalf("count = %d, %v; want %d", c, err, fragKeys/2)
			}
		})
	}
}

// TestDefragOffNeverMeasures: with DefragThreshold 0 the shard never scans
// or rewrites, however fragmented its leaves are.
func TestDefragOffNeverMeasures(t *testing.T) {
	e := newDefragEngine(t, fast.InPlaceCommit, 0, nil)
	fragment(t, e)
	for r := 0; r < 3*window; r++ {
		mustDo(t, e, update(r))
	}
	if f := e.ShardFragmentation(0); f != -1 {
		t.Fatalf("fragmentation %.3f measured with defrag off", f)
	}
	if n := e.ShardInfo(0).DefragPages; n != 0 {
		t.Fatalf("%d pages defragmented with defrag off", n)
	}
}

// TestDefragSkipsFaultedRounds: a round the writer fault kills, and a
// round the degraded shard refuses, do not count toward the window; the
// count resumes after Heal.
func TestDefragSkipsFaultedRounds(t *testing.T) {
	var armed atomic.Bool
	hook := func(int) {
		if armed.CompareAndSwap(true, false) {
			panic("injected writer fault")
		}
	}
	e := newDefragEngine(t, fast.SlotHeaderLogging, 0.2, hook)
	fragment(t, e)
	for round := 3; round < window; round++ {
		mustDo(t, e, update(round))
	}
	armed.Store(true)
	if err := e.Do(update(0)); !errors.Is(err, shard.ErrShardDown) {
		t.Fatalf("faulted round: %v", err)
	}
	if err := e.Do(update(1)); !errors.Is(err, shard.ErrShardDown) {
		t.Fatalf("round on the degraded shard: %v", err)
	}
	if f := e.ShardFragmentation(0); f != -1 {
		t.Fatalf("a faulted or refused round closed the window (fragmentation %.3f)", f)
	}
	if err := e.Heal(0); err != nil {
		t.Fatal(err)
	}
	mustDo(t, e, update(window))
	if f := e.ShardFragmentation(0); f < 0 {
		t.Fatal("the 32nd fault-free round did not measure")
	}
}

// TestDefragIdleSlots: the round that closes a window rewrites at most one
// pass of hot leaves; ApplyBatch schedules no idle slot, so the rest wait
// for a one-shard Do, whose idle slot rewrites up to one more pass each
// until the queue is empty.
func TestDefragIdleSlots(t *testing.T) {
	e := newDefragEngine(t, fast.InPlaceCommit, 0.2, nil)
	fragment(t, e)
	for round := 3; round <= window; round++ {
		applyAll(t, e, []shard.Op{update(round)})
	}
	if n := e.ShardInfo(0).DefragPages; n != perSlot {
		t.Fatalf("window close rewrote %d leaves, want one pass of %d", n, perSlot)
	}
	for round := window + 1; round <= window+10; round++ {
		applyAll(t, e, []shard.Op{update(round)})
	}
	if n := e.ShardInfo(0).DefragPages; n != perSlot {
		t.Fatalf("ApplyBatch rounds rewrote leaves in idle slots: %d, want %d", n, perSlot)
	}
	prev := int64(perSlot)
	for r := 0; r < maxHot/perSlot+1; r++ {
		mustDo(t, e, update(r))
		n := e.ShardInfo(0).DefragPages
		if n < prev || n > prev+perSlot {
			t.Fatalf("idle slot %d moved the count %d -> %d, want at most one pass", r, prev, n)
		}
		prev = n
	}
	if prev <= 2*perSlot || prev > maxHot {
		t.Fatalf("idle slots left %d leaves rewritten, want in (%d, %d]", prev, 2*perSlot, maxHot)
	}
	// The queue is empty: further idle slots rewrite nothing until the next
	// window measures again.
	mustDo(t, e, update(1))
	if n := e.ShardInfo(0).DefragPages; n != prev {
		t.Fatalf("idle slot after the queue drained rewrote %d leaves", n-prev)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}
