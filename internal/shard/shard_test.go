package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/shard"
	"fasp/internal/slotted"
)

// testGeometry mirrors the golden-test environment: small pages so batches
// span leaves, small cache so flushes hit the simulated medium.
const (
	testPageSize = 1024
	testMaxPages = 2048
)

func testConfig(shards, maxBatch, maxPages int) shard.Config {
	return testConfigVariant(shards, maxBatch, maxPages, fast.SlotHeaderLogging)
}

// testConfigVariant is testConfig over the given FAST commit variant.
func testConfigVariant(shards, maxBatch, maxPages int, v fast.Variant) shard.Config {
	if maxPages == 0 {
		maxPages = testMaxPages
	}
	fcfg := fast.Config{PageSize: testPageSize, MaxPages: maxPages, Variant: v}
	return shard.Config{
		Shards:   shards,
		MaxBatch: maxBatch,
		Open: func(i int) (*shard.Backend, error) {
			lat := pmem.DefaultLatencies(300, 300)
			lat.CacheBytes = 16 << 10
			sys := pmem.NewSystem(lat)
			st := fast.Create(sys, fcfg)
			return &shard.Backend{Sys: sys, Arena: st.Arena(), Store: st}, nil
		},
		Reattach: func(i int, be *shard.Backend) (pager.Store, error) {
			ns, err := fast.Attach(be.Arena, fcfg)
			if err != nil {
				return nil, err
			}
			return ns, ns.Recover()
		},
	}
}

func newTestEngine(t *testing.T, shards, maxBatch int) *shard.Engine {
	t.Helper()
	e, err := shard.New(testConfig(shards, maxBatch, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val%06d", i)) }

func TestBasicOps(t *testing.T) {
	e := newTestEngine(t, 4, 8)
	const n = 200
	for i := 0; i < n; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d: %q %v %v", i, v, ok, err)
		}
	}
	// Update via put, then delete odd keys.
	for i := 0; i < n; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: []byte("v2")}); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	for i := 1; i < n; i += 2 {
		if err := e.Do(shard.Op{Kind: shard.OpDelete, Key: key(i)}); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	c, err := e.Count()
	if err != nil || c != n/2 {
		t.Fatalf("count = %d, %v; want %d", c, err, n/2)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-op verdicts for the kinds that can fail.
	if err := e.Do(shard.Op{Kind: shard.OpInsert, Key: key(0), Val: val(0)}); !errors.Is(err, slotted.ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := e.Do(shard.Op{Kind: shard.OpUpdate, Key: []byte("nope"), Val: val(0)}); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Fatalf("update absent: %v", err)
	}
	if err := e.Do(shard.Op{Kind: shard.OpDelete, Key: []byte("nope")}); !errors.Is(err, btree.ErrKeyNotFound) {
		t.Fatalf("delete absent: %v", err)
	}
}

func TestScanMerge(t *testing.T) {
	e := newTestEngine(t, 5, 16)
	const n = 300
	ops := make([]shard.Op, n)
	want := make([]string, n)
	for i := 0; i < n; i++ {
		ops[i] = shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)}
		want[i] = string(key(i))
	}
	for _, err := range e.ApplyBatch(ops) {
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(want)

	var got []string
	if err := e.ScanLimit(nil, nil, false, 0, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ascending merge broken: %d keys, first %v", len(got), got[:3])
	}

	got = got[:0]
	if err := e.ScanLimit(nil, nil, true, 0, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(want)-1; i < len(got); i, j = i+1, j-1 {
		if got[i] != want[j] {
			t.Fatalf("descending merge broken at %d: %s != %s", i, got[i], want[j])
		}
	}
	if len(got) != n {
		t.Fatalf("reverse scan saw %d keys, want %d", len(got), n)
	}

	// Bounded scan with early termination.
	var first []string
	if err := e.ScanLimit([]byte("key000010"), []byte("key000290"), false, 0, func(k, v []byte) bool {
		first = append(first, string(k))
		return len(first) < 5
	}); err != nil {
		t.Fatal(err)
	}
	if len(first) != 5 || first[0] != "key000010" || first[4] != "key000014" {
		t.Fatalf("bounded scan: %v", first)
	}

	// Per-shard scans partition the key space exactly.
	seen := 0
	for i := 0; i < e.Shards(); i++ {
		if err := e.ScanShard(i, nil, nil, func(k, v []byte) bool {
			if e.ShardFor(k) != i {
				t.Fatalf("key %q on shard %d, routed to %d", k, i, e.ShardFor(k))
			}
			seen++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if seen != n {
		t.Fatalf("shard scans saw %d keys, want %d", seen, n)
	}
}

// TestApplyBatchDeterminism: batch boundaries on the ApplyBatch path are a
// pure function of the op sequence, so applying the shards' sub-batches
// concurrently changes nothing per shard. One 4-shard call must leave every
// shard's simulated time, phases and PM counters bit-identical to an engine
// fed each shard's sub-batch in a call of its own (which applies it on the
// caller's goroutine), and give each op the same verdict at its own index:
// duplicate inserts and deletes of absent keys fail alone, and every op of
// the shard the fault hook degrades fails with ErrShardDown.
func TestApplyBatchDeterminism(t *testing.T) {
	const degraded = 2
	newEngine := func() *shard.Engine {
		cfg := testConfig(4, 16, 0)
		cfg.FaultHook = func(s int) {
			if s == degraded {
				panic("injected writer fault")
			}
		}
		e, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	var ops []shard.Op
	for i := 0; i < 400; i++ {
		ops = append(ops, shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)})
	}
	for i := 0; i < 100; i += 3 {
		ops = append(ops, shard.Op{Kind: shard.OpPut, Key: key(i), Val: []byte("updated")})
	}
	for i := 0; i < 50; i += 5 {
		ops = append(ops, shard.Op{Kind: shard.OpDelete, Key: key(i)})
	}
	benign := len(ops) // from here: a duplicate insert, then a delete of an absent key, in turn
	for i := 0; i < 40; i += 7 {
		ops = append(ops, shard.Op{Kind: shard.OpInsert, Key: key(i + 100), Val: val(i)})
		ops = append(ops, shard.Op{Kind: shard.OpDelete, Key: key(i + 1000)})
	}

	one := newEngine()
	got := one.ApplyBatch(ops)
	split := newEngine()
	want := make([]error, len(ops))
	for si := 0; si < split.Shards(); si++ {
		var idx []int
		var sub []shard.Op
		for i, op := range ops {
			if split.ShardFor(op.Key) == si {
				idx = append(idx, i)
				sub = append(sub, op)
			}
		}
		for k, err := range split.ApplyBatch(sub) {
			want[idx[k]] = err
		}
	}

	var dups, absent int
	for i, op := range ops {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("op %d (%s): one call %v, split calls %v", i, op.Key, got[i], want[i])
		}
		err := got[i]
		switch {
		case one.ShardFor(op.Key) == degraded:
			if !errors.Is(err, shard.ErrShardDown) {
				t.Fatalf("op %d on the degraded shard: %v", i, err)
			}
		case i >= benign && (i-benign)%2 == 0:
			if !errors.Is(err, slotted.ErrDuplicate) {
				t.Fatalf("op %d, a duplicate insert: %v", i, err)
			}
			dups++
		case i >= benign:
			if !errors.Is(err, btree.ErrKeyNotFound) {
				t.Fatalf("op %d, a delete of an absent key: %v", i, err)
			}
			absent++
		case err != nil:
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if dups == 0 || absent == 0 {
		t.Fatalf("healthy shards saw %d duplicate inserts and %d absent deletes", dups, absent)
	}
	for i := 0; i < one.Shards(); i++ {
		ia, ib := one.ShardInfo(i), split.ShardInfo(i)
		if !reflect.DeepEqual(ia, ib) {
			t.Fatalf("shard %d diverged:\n%+v\n%+v", i, ia, ib)
		}
		if i == degraded {
			if ia.Health != shard.Degraded {
				t.Fatalf("shard %d not degraded: %+v", i, ia)
			}
		} else if ia.SimNS == 0 || ia.Batches == 0 {
			t.Fatalf("shard %d did no work: %+v", i, ia)
		}
	}
}

// TestApplyBatchShardsOverlap: ApplyBatch applies the shards' sub-batches
// at once. Shard 0's group commit waits until shard 1's has started, which
// only a concurrent apply lets happen; applied one shard after the other,
// the wait times out and is recorded.
func TestApplyBatchShardsOverlap(t *testing.T) {
	cfg := testConfig(2, 16, 0)
	started1 := make(chan struct{})
	var once sync.Once
	var timedOut atomic.Bool
	cfg.FaultHook = func(s int) {
		switch s {
		case 0:
			select {
			case <-started1:
			case <-time.After(5 * time.Second):
				timedOut.Store(true)
			}
		case 1:
			once.Do(func() { close(started1) })
		}
	}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var ops []shard.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)})
	}
	for i, err := range e.ApplyBatch(ops) {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if timedOut.Load() {
		t.Fatal("shard 0's group commit waited 5s for shard 1's to start: the shards were applied one after the other")
	}
	for i := 0; i < e.Shards(); i++ {
		if e.ShardInfo(i).Batches == 0 {
			t.Fatalf("shard %d committed nothing", i)
		}
	}
}

// TestGroupCommitBatching: concurrent clients on one shard are drained into
// fewer commits than operations.
func TestGroupCommitBatching(t *testing.T) {
	e := newTestEngine(t, 1, 64)
	const clients, per = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				op := shard.Op{Kind: shard.OpPut, Key: key(c*per + i), Val: val(i)}
				if err := e.Do(op); err != nil {
					t.Errorf("client %d op %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := e.Stats()
	if st.Ops != clients*per {
		t.Fatalf("ops = %d, want %d", st.Ops, clients*per)
	}
	if st.Batches == 0 || st.Batches > st.Ops {
		t.Fatalf("batches = %d out of range (ops %d)", st.Batches, st.Ops)
	}
	if st.MaxDrained < 1 || st.MaxDrained > 64 {
		t.Fatalf("maxDrained = %d out of range", st.MaxDrained)
	}
	if c, err := e.Count(); err != nil || c != clients*per {
		t.Fatalf("count = %d, %v", c, err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClients exercises both write paths across shards with mixed
// readers and writers — Do committing on each writer's goroutine, and
// multi-shard batches through the shard queues (Submit); run under -race
// this is the engine's thread-safety proof.
func TestConcurrentClients(t *testing.T) {
	e := newTestEngine(t, 4, 16)
	const writers, readers, per = 6, 3, 80
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * per
			for i := 0; i < per; i++ {
				if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(base + i), Val: val(base + i)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
			// And a multi-shard batch through the shard queues.
			ops := make([]shard.Op, 10)
			for i := range ops {
				ops[i] = shard.Op{Kind: shard.OpPut, Key: key(base + i), Val: []byte("batched")}
			}
			var sp shard.Submission
			errs := make([]error, len(ops))
			e.Submit(&sp, ops, errs, []int32{5, 5})
			for _, err := range errs {
				if err != nil {
					t.Errorf("writer %d batch: %v", w, err)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := e.Get(key(i)); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
			e.ScanLimit(nil, nil, false, 0, func(k, v []byte) bool { return true })
			e.Count()
		}()
	}
	wg.Wait()
	if c, err := e.Count(); err != nil || c != writers*per {
		t.Fatalf("count = %d, %v; want %d", c, err, writers*per)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBenignErrorsInBatch: logical per-op failures don't abort the rest of
// a group commit.
func TestBenignErrorsInBatch(t *testing.T) {
	e := newTestEngine(t, 2, 32)
	if err := e.Do(shard.Op{Kind: shard.OpInsert, Key: key(0), Val: val(0)}); err != nil {
		t.Fatal(err)
	}
	ops := []shard.Op{
		{Kind: shard.OpInsert, Key: key(0), Val: val(9)},             // duplicate
		{Kind: shard.OpInsert, Key: key(1), Val: val(1)},             // fine
		{Kind: shard.OpDelete, Key: []byte("missing")},               // absent
		{Kind: shard.OpInsert, Key: key(2), Val: val(2)},             // fine
		{Kind: shard.OpUpdate, Key: []byte("missing2"), Val: val(0)}, // absent
	}
	errs := e.ApplyBatch(ops)
	if !errors.Is(errs[0], slotted.ErrDuplicate) {
		t.Fatalf("errs[0] = %v", errs[0])
	}
	if errs[1] != nil || errs[3] != nil {
		t.Fatalf("good ops failed: %v %v", errs[1], errs[3])
	}
	if !errors.Is(errs[2], btree.ErrKeyNotFound) || !errors.Is(errs[4], btree.ErrKeyNotFound) {
		t.Fatalf("absent-key errors: %v %v", errs[2], errs[4])
	}
	// The failed duplicate must not have clobbered the original value.
	v, ok, err := e.Get(key(0))
	if err != nil || !ok || !bytes.Equal(v, val(0)) {
		t.Fatalf("key0 = %q %v %v", v, ok, err)
	}
	for _, k := range [][]byte{key(1), key(2)} {
		if _, ok, _ := e.Get(k); !ok {
			t.Fatalf("key %q missing after batch with benign errors", k)
		}
	}
}

// TestRefusedOpPaysNoCommit: a chunk in which every op is refused before it
// touches the tree rolls back instead of committing — no flush, no fence,
// no batch counted — on each write path.
func TestRefusedOpPaysNoCommit(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e := newTestEngine(t, shards, 8)
		if err := e.Do(shard.Op{Kind: shard.OpInsert, Key: key(0), Val: val(0)}); err != nil {
			t.Fatal(err)
		}
		si := e.ShardFor(key(0))
		dup := shard.Op{Kind: shard.OpInsert, Key: key(0), Val: val(9)}
		for _, path := range []struct {
			name    string
			refused func() error
		}{
			{"Do", func() error { return e.Do(dup) }},
			{"ApplyBatch", func() error { return e.ApplyBatch([]shard.Op{dup})[0] }},
			{"SubmitShard", func() error { return submit1(e, si, dup) }},
		} {
			name := path.name
			before, fences := e.ShardInfo(si), e.ShardSys(si).Fences()
			if err := path.refused(); !errors.Is(err, slotted.ErrDuplicate) {
				t.Fatalf("%d shards, %s: err = %v, want ErrDuplicate", shards, name, err)
			}
			after := e.ShardInfo(si)
			if after.PM.FlushCalls != before.PM.FlushCalls || e.ShardSys(si).Fences() != fences || after.Batches != before.Batches {
				t.Errorf("%d shards, %s: a refused op paid a commit: flushes %d -> %d, fences %d -> %d, batches %d -> %d",
					shards, name, before.PM.FlushCalls, after.PM.FlushCalls, fences, e.ShardSys(si).Fences(), before.Batches, after.Batches)
			}
		}
	}
}

// TestHardErrorFallback: page-space exhaustion mid-batch falls back to
// per-op transactions so every caller gets an individual verdict and the
// tree stays structurally valid.
func TestHardErrorFallback(t *testing.T) {
	cfg := testConfig(1, 64, 24) // tiny page space
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ops := make([]shard.Op, 600)
	for i := range ops {
		ops[i] = shard.Op{Kind: shard.OpInsert, Key: key(i), Val: bytes.Repeat([]byte("x"), 64)}
	}
	errs := e.ApplyBatch(ops)
	full, okc := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			okc++
		case errors.Is(err, pager.ErrFull):
			full++
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	if full == 0 {
		t.Fatal("never hit ErrFull; grow the workload")
	}
	if okc == 0 {
		t.Fatal("no op succeeded before exhaustion")
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if c, err := e.Count(); err != nil || c != okc {
		t.Fatalf("count = %d, %v; want %d successes", c, err, okc)
	}
}

// TestCrashReopen: an explicit whole-engine crash lands on batch
// boundaries; committed data on every shard survives recovery.
func TestCrashReopen(t *testing.T) {
	e := newTestEngine(t, 4, 8)
	const n = 250
	for i := 0; i < n; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Crash(pmem.CrashOptions{Seed: 42, EvictProb: 0.5})
	// Every path reports the poisoned state.
	if _, _, err := e.Get(key(0)); !errors.Is(err, shard.ErrCrashed) {
		t.Fatalf("get after crash: %v", err)
	}
	if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(0), Val: val(0)}); !errors.Is(err, shard.ErrCrashed) {
		t.Fatalf("do after crash: %v", err)
	}
	if _, err := e.Count(); !errors.Is(err, shard.ErrCrashed) {
		t.Fatalf("count after crash: %v", err)
	}
	if err := e.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := e.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d lost after crash+reopen: %q %v %v", i, v, ok, err)
		}
	}
	// The engine accepts writes again.
	if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(n), Val: val(n)}); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedCrashMidBatch: arm one shard's crash injector so the power
// failure fires inside a group commit; that batch reports ErrCrashed,
// other shards keep serving, and recovery yields exactly the pre-batch
// committed state on the crashed shard.
func TestInjectedCrashMidBatch(t *testing.T) {
	e := newTestEngine(t, 2, 32)
	// Commit a baseline on both shards.
	var ops []shard.Op
	for i := 0; i < 100; i++ {
		ops = append(ops, shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)})
	}
	for _, err := range e.ApplyBatch(ops) {
		if err != nil {
			t.Fatal(err)
		}
	}
	committed := map[int]bool{}
	for i := 0; i < 100; i++ {
		committed[e.ShardFor(key(i))] = true
	}

	const victim = 0
	e.ShardSys(victim).CrashAfter(10)

	// Route a batch to each shard. The victim's batch dies mid-flight.
	var vops, oops []shard.Op
	for i := 100; len(vops) < 20 || len(oops) < 20; i++ {
		op := shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)}
		if e.ShardFor(op.Key) == victim {
			vops = append(vops, op)
		} else {
			oops = append(oops, op)
		}
	}
	for _, err := range e.ApplyBatch(vops) {
		if !errors.Is(err, shard.ErrCrashed) {
			t.Fatalf("victim batch op: %v", err)
		}
	}
	for _, err := range e.ApplyBatch(oops) {
		if err != nil {
			t.Fatalf("healthy shard refused op: %v", err)
		}
	}

	// Power-failure proper: eviction lottery, then recovery.
	e.Crash(pmem.CrashOptions{Seed: 7, EvictProb: 0.5})
	if err := e.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Baseline survived everywhere.
	for i := 0; i < 100; i++ {
		if _, ok, err := e.Get(key(i)); err != nil || !ok {
			t.Fatalf("baseline key %d lost: %v %v", i, ok, err)
		}
	}
	// The victim's mid-batch ops are gone: the group commit is atomic.
	for _, op := range vops {
		if _, ok, err := e.Get(op.Key); err != nil || ok {
			t.Fatalf("uncommitted key %q survived the crash: %v %v", op.Key, ok, err)
		}
	}
	// The healthy shard's batch committed before the explicit crash.
	for _, op := range oops {
		if _, ok, err := e.Get(op.Key); err != nil || !ok {
			t.Fatalf("healthy-shard key %q lost: %v %v", op.Key, ok, err)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	e, err := shard.New(testConfig(3, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(1), Val: val(1)}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
}

// faultyStore wraps a real store; when armed, the next Begin panics — a
// stand-in for a store bug or a hard PM error surfacing inside a commit.
type faultyStore struct {
	pager.Store
	arm atomic.Bool
}

func (f *faultyStore) Begin() (pager.Txn, error) {
	if f.arm.CompareAndSwap(true, false) {
		panic("injected hard PM fault")
	}
	return f.Store.Begin()
}

// TestWriterPanicContainment: a panic inside one shard's write path must
// not kill the process or wedge the shard — the batch fails with
// ErrShardDown, the shard degrades, the other shards keep serving, and
// Heal restores the degraded shard with no acked-write loss. The queued
// arm faults a round that a submitter serves off the shard's queue, and
// queues again after the heal; the Do arm faults a commit that never
// queued.
func TestWriterPanicContainment(t *testing.T) {
	for _, path := range []string{"queued", "do"} {
		t.Run(path, func(t *testing.T) { writerPanicContainment(t, path == "queued") })
	}
}

func writerPanicContainment(t *testing.T, queued bool) {
	const shards = 2
	cfg := testConfig(shards, 8, 0)
	faults := make([]*faultyStore, shards)
	open := cfg.Open
	cfg.Open = func(i int) (*shard.Backend, error) {
		be, err := open(i)
		if err != nil {
			return nil, err
		}
		faults[i] = &faultyStore{Store: be.Store}
		be.Store = faults[i]
		return be, nil
	}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	write := e.Do
	if queued {
		write = func(op shard.Op) error { return submit1(e, e.ShardFor(op.Key), op) }
	}

	const n = 120
	for i := 0; i < n; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Route one key to each shard for the post-fault probes.
	probe := make([][]byte, shards)
	for i := 0; probe[0] == nil || probe[1] == nil; i++ {
		k := key(n + i)
		probe[e.ShardFor(k)] = k
	}

	const victim = 0
	faults[victim].arm.Store(true)
	err = write(shard.Op{Kind: shard.OpInsert, Key: probe[victim], Val: val(0)})
	if !errors.Is(err, shard.ErrShardDown) {
		t.Fatalf("faulted batch: %v", err)
	}
	// The degraded shard refuses reads and writes with the cause attached...
	if _, _, err := e.Get(probe[victim]); !errors.Is(err, shard.ErrShardDown) {
		t.Fatalf("get on degraded shard: %v", err)
	}
	if err := write(shard.Op{Kind: shard.OpInsert, Key: probe[victim], Val: val(0)}); !errors.Is(err, shard.ErrShardDown) {
		t.Fatalf("write on degraded shard: %v", err)
	}
	// ...while the other shard keeps serving both.
	if err := write(shard.Op{Kind: shard.OpInsert, Key: probe[1], Val: val(1)}); err != nil {
		t.Fatalf("healthy shard refused a write: %v", err)
	}
	if _, ok, err := e.Get(probe[1]); err != nil || !ok {
		t.Fatalf("healthy shard refused a read: %v %v", ok, err)
	}

	in := e.ShardInfo(victim)
	if in.Health != shard.Degraded || in.Fault == "" {
		t.Fatalf("victim info: health=%v fault=%q", in.Health, in.Fault)
	}
	if st := e.Stats(); st.DegradedShards != 1 || st.CrashedShards != 0 {
		t.Fatalf("stats: %+v", st)
	}

	if err := e.Heal(victim); err != nil {
		t.Fatal(err)
	}
	if in := e.ShardInfo(victim); in.Health != shard.Healthy {
		t.Fatalf("victim not healthy after heal: %+v", in)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// No acked write was lost, and the healed shard serves again.
	for i := 0; i < n; i++ {
		v, ok, err := e.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("acked key %d lost across the fault: %q %v %v", i, v, ok, err)
		}
	}
	if err := write(shard.Op{Kind: shard.OpInsert, Key: probe[victim], Val: val(0)}); err != nil {
		t.Fatalf("healed shard refused a write: %v", err)
	}
}

// blockingStore wedges a commit: when armed, the next Begin signals entry
// and then blocks until released.
type blockingStore struct {
	pager.Store
	arm     atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *blockingStore) Begin() (pager.Txn, error) {
	if s.arm.CompareAndSwap(true, false) {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.Store.Begin()
}

// submit1 sends one op through shard si's queue (SubmitShard), so a
// submitter serves it as a round: the path Do never takes.
func submit1(e *shard.Engine, si int, op shard.Op) error {
	var errs [1]error
	e.SubmitShard(si, []shard.Op{op}, errs[:])
	return errs[0]
}

// TestEnqueueBusy: with a round wedged and the queue full, a submission
// fails with ErrBusy at once instead of blocking; once the round resumes,
// queued work completes.
func TestEnqueueBusy(t *testing.T) {
	cfg := testConfig(1, 1, 0)
	bs := &blockingStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	open := cfg.Open
	cfg.Open = func(i int) (*shard.Backend, error) {
		be, err := open(i)
		if err != nil {
			return nil, err
		}
		bs.Store = be.Store
		be.Store = bs
		return be, nil
	}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	bs.arm.Store(true)
	first := make(chan error, 1)
	go func() { first <- submit1(e, 0, shard.Op{Kind: shard.OpInsert, Key: key(0), Val: val(0)}) }()
	<-bs.entered // a round is now wedged mid-batch; the queue is empty

	// The queue holds 4×MaxBatch = 4 submissions. One more than that
	// races for its slots: the loser must fail with ErrBusy while the
	// winners wait for the wedged round.
	const queue = 4
	rest := make(chan error, queue+1)
	for i := 1; i <= queue+1; i++ {
		go func() { rest <- submit1(e, 0, shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)}) }()
	}
	if err := <-rest; !errors.Is(err, shard.ErrBusy) {
		t.Fatalf("full queue submission: %v", err)
	}

	close(bs.release)
	if err := <-first; err != nil {
		t.Fatalf("wedged batch after release: %v", err)
	}
	for i := 0; i < queue; i++ {
		if err := <-rest; err != nil {
			t.Fatalf("queued batch after release: %v", err)
		}
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := shard.New(shard.Config{Shards: 0}); err == nil {
		t.Fatal("Shards=0 accepted")
	}
	if _, err := shard.New(shard.Config{Shards: 2}); err == nil {
		t.Fatal("missing Open accepted")
	}
	cfg := testConfig(2, 0, 0)
	cfg.Reattach = nil
	if _, err := shard.New(cfg); err == nil {
		t.Fatal("missing Reattach accepted")
	}
	if _, err := shard.New(testConfig(2, shard.MaxBatchLimit+1, 0)); err == nil {
		t.Fatal("MaxBatch above MaxBatchLimit accepted")
	}
}

// TestCloseSealsLockedPath pins the stronger half of the Close contract
// on the locked (ApplyBatch) path: once Close has returned, no batch —
// including one already past the engine-level closed check — commits.
// Close seals each shard under its own lock, so a racing ApplyBatch
// either lands before Close returns or fails with ErrClosed.
func TestCloseSealsLockedPath(t *testing.T) {
	e, err := shard.New(testConfig(4, 8, 0))
	if err != nil {
		t.Fatal(err)
	}

	count := func() int {
		n := 0
		if err := e.ScanLimit(nil, nil, false, 0, func(k, v []byte) bool {
			n++
			return true
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		return n
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ops := []shard.Op{{Kind: shard.OpPut, Key: []byte(fmt.Sprintf("seal-c%d-%06d", c, i)), Val: []byte("v")}}
				for _, err := range e.ApplyBatch(ops) {
					if err != nil && !errors.Is(err, shard.ErrClosed) {
						t.Errorf("ApplyBatch: %v", err)
						return
					}
				}
			}
		}(c)
	}
	time.Sleep(2 * time.Millisecond) // let the callers commit a few batches
	e.Close()
	n0 := count()
	time.Sleep(2 * time.Millisecond) // racing batches would land here
	if n1 := count(); n1 != n0 {
		t.Fatalf("batch committed after Close returned: %d -> %d records", n0, n1)
	}
	close(stop)
	wg.Wait()
	if n2 := count(); n2 != n0 {
		t.Fatalf("late batch committed after Close returned: %d -> %d records", n0, n2)
	}
}

// TestCloseServesQueued: Close serves whatever is queued before it seals.
// Shard 0's first round stalls in the fault hook while more handles queue
// behind it, and Close starts meanwhile. Once the stall is released, every
// queued handle gets its real verdict — its put commits, its duplicate
// insert is refused as a duplicate — not ErrClosed. The handles are waited
// on only after Close has returned, so Close itself served them. A later
// Enqueue gets ErrClosed.
func TestCloseServesQueued(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var stalled atomic.Bool
	cfg := testConfig(2, 64, 0)
	cfg.FaultHook = func(si int) {
		if si == 0 && !stalled.Swap(true) {
			close(entered)
			<-release
		}
	}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	keyOn0 := func(n int) []byte {
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("q%d-%d", n, i))
			if e.ShardFor(k) == 0 {
				return k
			}
		}
	}
	dup := keyOn0(-1)

	first := make(chan error, 1)
	go func() { first <- submit1(e, 0, shard.Op{Kind: shard.OpPut, Key: dup, Val: []byte("v")}) }()
	<-entered // shard 0's first round is stalled under the shard lock

	const queued = 8
	reqs := make([]shard.Request, queued)
	errs := make([][]error, queued)
	keys := make([][]byte, queued)
	for i := range reqs {
		keys[i] = keyOn0(i)
		ops := []shard.Op{
			{Kind: shard.OpPut, Key: keys[i], Val: []byte("v")},
			{Kind: shard.OpInsert, Key: dup, Val: []byte("again")},
		}
		errs[i] = make([]error, len(ops))
		e.Enqueue(&reqs[i], 0, ops, errs[i], []int32{1, 1})
	}

	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	for !e.Closed() {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while shard 0's round was stalled")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs after the stall was released")
	}
	if err := <-first; err != nil {
		t.Fatalf("stalled round: %v", err)
	}
	for i := range reqs {
		e.Wait(&reqs[i])
		if err := errs[i][0]; err != nil {
			t.Fatalf("queued put %d: %v", i, err)
		}
		if err := errs[i][1]; !errors.Is(err, slotted.ErrDuplicate) {
			t.Fatalf("queued duplicate insert %d: %v, want a duplicate-key refusal", i, err)
		}
		if v, ok, err := e.Get(keys[i]); err != nil || !ok || string(v) != "v" {
			t.Fatalf("queued put %d not readable after Close: %q %v %v", i, v, ok, err)
		}
	}

	var r shard.Request
	late := make([]error, 1)
	e.Enqueue(&r, 0, []shard.Op{{Kind: shard.OpPut, Key: keyOn0(queued), Val: []byte("v")}}, late, nil)
	e.Wait(&r)
	if !errors.Is(late[0], shard.ErrClosed) {
		t.Fatalf("Enqueue after Close: %v, want ErrClosed", late[0])
	}
}
