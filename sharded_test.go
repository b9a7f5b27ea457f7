package fasp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestZeroLatencySentinel: PMReadNS/PMWriteNS of -1 select an explicitly
// zero-latency medium; 0 still picks the 300 ns default, and the sentinel
// survives the facade's (idempotent) option fill.
func TestZeroLatencySentinel(t *testing.T) {
	kv, err := OpenKV(Options{PMReadNS: -1, PMWriteNS: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	lat := kv.System().Latencies()
	if lat.PMRead != 0 || lat.PMWrite != 0 {
		t.Fatalf("sentinel not honoured: PMRead=%d PMWrite=%d", lat.PMRead, lat.PMWrite)
	}
	kvDefault, err := OpenKV(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kvDefault.Close()
	lat = kvDefault.System().Latencies()
	if lat.PMRead != 300 || lat.PMWrite != 300 {
		t.Fatalf("default broken: PMRead=%d PMWrite=%d", lat.PMRead, lat.PMWrite)
	}
	// Sharded stores fill Options once per shard backend; the sentinel must
	// survive every re-fill.
	skv, err := OpenKV(Options{Shards: 3, PMReadNS: -1, PMWriteNS: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer skv.Close()
	for i := 0; i < skv.Shards(); i++ {
		sys, err := skv.ShardSystem(i)
		if err != nil {
			t.Fatal(err)
		}
		lat := sys.Latencies()
		if lat.PMRead != 0 || lat.PMWrite != 0 {
			t.Fatalf("shard %d: sentinel lost: %+v", i, lat)
		}
	}
}

func TestShardedKVBasics(t *testing.T) {
	kv, err := OpenKV(Options{Shards: 4, MaxBatch: 16, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if !kv.Sharded() || kv.Shards() != 4 {
		t.Fatalf("Sharded=%v Shards=%d", kv.Sharded(), kv.Shards())
	}
	const n = 400
	for i := 0; i < n; i++ {
		if err := kv.Insert(k(i), v(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	got, ok, err := kv.Get(k(123))
	if err != nil || !ok || !bytes.Equal(got, v(123)) {
		t.Fatalf("get = %q %v %v", got, ok, err)
	}
	if err := kv.Put(k(123), []byte("patched")); err != nil {
		t.Fatal(err)
	}
	if got, _, _ = kv.Get(k(123)); string(got) != "patched" {
		t.Fatalf("after put: %q", got)
	}
	if err := kv.Delete(k(123)); err != nil {
		t.Fatal(err)
	}
	if c, err := kv.Count(); err != nil || c != n-1 {
		t.Fatalf("count = %d, %v", c, err)
	}
	if err := kv.Validate(); err != nil {
		t.Fatal(err)
	}
	// Global scan order is the single-store order despite partitioning.
	var prev []byte
	seen := 0
	if err := kv.Scan(nil, nil, func(key, _ []byte) bool {
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			t.Fatalf("scan out of order: %q after %q", key, prev)
		}
		prev = append(prev[:0], key...)
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n-1 {
		t.Fatalf("scan saw %d keys", seen)
	}
	// Cross-shard explicit transactions are refused, not silently unsafe.
	if err := kv.Batch(func(tx BatchTx) error { return nil }); err == nil {
		t.Fatal("Batch accepted on a sharded store")
	}
	// Stats aggregate across shards.
	st := kv.EngineStats()
	if st.Shards != 4 || st.Ops == 0 || st.Batches == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SimMaxNS <= 0 || st.SimSumNS < st.SimMaxNS {
		t.Fatalf("sim times inconsistent: %+v", st)
	}
	if kv.SimulatedNS() != st.SimMaxNS {
		t.Fatalf("SimulatedNS %d != SimMaxNS %d", kv.SimulatedNS(), st.SimMaxNS)
	}
	if ph := kv.Phases(); len(ph) == 0 {
		t.Fatal("no phase breakdown")
	}
	var ops int64
	for i := 0; i < kv.Shards(); i++ {
		in, err := kv.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		if in.SimNS == 0 {
			t.Fatalf("shard %d idle — routing broken", i)
		}
		ops += in.Ops
	}
	if ops != st.Ops {
		t.Fatalf("per-shard ops %d != aggregate %d", ops, st.Ops)
	}
}

func TestShardedKVApplyBatch(t *testing.T) {
	kv, err := OpenKV(Options{Shards: 4, MaxBatch: 8, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ops := make([]Op, 100)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Key: k(i), Val: v(i)}
	}
	for i, err := range kv.ApplyBatch(ops) {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Mixed batch: benign failures don't poison their group commit.
	mixed := []Op{
		{Kind: OpInsert, Key: k(0), Val: v(0)}, // duplicate
		{Kind: OpPut, Key: k(1), Val: []byte("patched")},
		{Kind: OpDelete, Key: []byte("absent")},
		{Kind: OpInsert, Key: k(100), Val: v(100)},
	}
	errs := kv.ApplyBatch(mixed)
	if errs[0] == nil || errs[1] != nil || errs[2] == nil || errs[3] != nil {
		t.Fatalf("mixed verdicts: %v", errs)
	}
	if got, _, _ := kv.Get(k(1)); string(got) != "patched" {
		t.Fatalf("put in mixed batch lost: %q", got)
	}
	if c, _ := kv.Count(); c != 101 {
		t.Fatalf("count = %d", c)
	}
}

func TestShardedKVConcurrentClients(t *testing.T) {
	kv, err := OpenKV(Options{Shards: 4, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				if err := kv.Insert(key, []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, ok, err := kv.Get(key); err != nil || !ok {
					t.Errorf("get: %v %v", ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if c, err := kv.Count(); err != nil || c != workers*perWorker {
		t.Fatalf("count = %d (%v)", c, err)
	}
	if err := kv.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedKVCrashReopen(t *testing.T) {
	kv, err := OpenKV(Options{Shards: 4, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := kv.Insert(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	kv.Crash(CrashOptions{Seed: 11, EvictProb: 0.5})
	if _, _, err := kv.Get(k(0)); !errors.Is(err, ErrShardCrashed) {
		t.Fatalf("get after crash: %v", err)
	}
	if err := kv.Put(k(0), v(0)); !errors.Is(err, ErrShardCrashed) {
		t.Fatalf("put after crash: %v", err)
	}
	if err := kv.ReopenKV(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, ok, err := kv.Get(k(i)); err != nil || !ok {
			t.Fatalf("key %d lost: %v %v", i, ok, err)
		}
	}
	if err := kv.Insert(k(n), v(n)); err != nil {
		t.Fatalf("store dead after reopen: %v", err)
	}
}

func k(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("val%06d", i)) }

// TestSingleMachineAccessors: System and RawStore name shard 0's machine
// and store on a one-shard KV, and are nil on a sharded one, which has a
// machine per shard.
func TestSingleMachineAccessors(t *testing.T) {
	for _, shards := range []int{1, 3} {
		kv, err := OpenKV(Options{Shards: shards, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		sys0, _ := kv.ShardSystem(0)
		st0, _ := kv.ShardStore(0)
		if shards == 1 {
			if kv.System() != sys0 || kv.RawStore() != st0 {
				t.Fatal("one-shard System/RawStore are not shard 0's")
			}
			if kv.RawStore().Sys() != kv.System() {
				t.Fatal("one-shard store is not on the reported machine")
			}
		} else if kv.System() != nil || kv.RawStore() != nil {
			t.Fatalf("%d shards: System/RawStore = %v/%v, want nil", shards, kv.System(), kv.RawStore())
		}
		kv.Close()
	}
}

// TestKVHoldsNoGoroutine: a store owns no goroutine. Opening an 8-shard
// store and writing through SubmitShard and Submit — where
// submitters gather and commit their own group commits — leaves the
// goroutine count where it was before OpenKV.
func TestKVHoldsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	kv, err := OpenKV(Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ops := make([]Op, 64)
	for i := range ops {
		k := []byte(fmt.Sprintf("g-%03d", i))
		ops[i] = Op{Kind: OpPut, Key: k, Val: []byte("v")}
		errs := make([]error, 1)
		kv.SubmitShard(kv.ShardOf(k), ops[i:i+1], errs)
		if errs[0] != nil {
			t.Fatalf("SubmitShard %d: %v", i, errs[0])
		}
	}
	var sp Submission
	errs := make([]error, len(ops))
	kv.Submit(&sp, ops, errs, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines went %d -> %d across OpenKV and its writes: the store holds %d", before, after, after-before)
	}
}
