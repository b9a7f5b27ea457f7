package fasp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"fasp/internal/btree"
	"fasp/internal/obsv"
	"fasp/internal/shard"
)

// TestBadShardIndex pins the API-edge fix: out-of-range shard indexes used
// to panic. Every per-shard accessor and submission validates and returns
// ErrBadShard, whatever the shard count.
func TestBadShardIndex(t *testing.T) {
	check := func(t *testing.T, kv *KV, bad []int) {
		t.Helper()
		for _, i := range bad {
			if _, err := kv.ShardStats(i); !errors.Is(err, ErrBadShard) {
				t.Errorf("ShardStats(%d) = %v, want ErrBadShard", i, err)
			}
			if _, err := kv.ShardSystem(i); !errors.Is(err, ErrBadShard) {
				t.Errorf("ShardSystem(%d) = %v, want ErrBadShard", i, err)
			}
			if _, err := kv.ShardStore(i); !errors.Is(err, ErrBadShard) {
				t.Errorf("ShardStore(%d) = %v, want ErrBadShard", i, err)
			}
			if err := kv.Heal(i); !errors.Is(err, ErrBadShard) {
				t.Errorf("Heal(%d) = %v, want ErrBadShard", i, err)
			}
			if err := kv.ShardScan(i, nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, ErrBadShard) {
				t.Errorf("ShardScan(%d) = %v, want ErrBadShard", i, err)
			}
			errs := make([]error, 1)
			kv.SubmitShard(i, []Op{{Kind: OpPut, Key: k(1)}}, errs)
			if !errors.Is(errs[0], ErrBadShard) {
				t.Errorf("SubmitShard(%d) = %v, want ErrBadShard", i, errs[0])
			}
		}
		if n, err := kv.Count(); err != nil || n != 0 {
			t.Errorf("count = %d (%v) after refused submissions", n, err)
		}
		// Every in-range index works.
		for i := 0; i < kv.Shards(); i++ {
			if _, err := kv.ShardStats(i); err != nil {
				t.Errorf("ShardStats(%d): %v", i, err)
			}
			if sys, err := kv.ShardSystem(i); err != nil || sys == nil {
				t.Errorf("ShardSystem(%d) = %v, %v", i, sys, err)
			}
			if st, err := kv.ShardStore(i); err != nil || st == nil {
				t.Errorf("ShardStore(%d) = %v, %v", i, st, err)
			}
		}
	}

	t.Run("sharded", func(t *testing.T) {
		kv, err := OpenKV(Options{Shards: 4, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		check(t, kv, []int{-1, 4, 100})
	})
	t.Run("single", func(t *testing.T) {
		kv, err := OpenKV(Options{PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		check(t, kv, []int{-1, 1, 7})
		// System() and RawStore() of a one-shard store are shard 0's.
		if sys, err := kv.ShardSystem(0); err != nil || sys != kv.System() {
			t.Errorf("ShardSystem(0) should alias System(): %v, %v", sys, err)
		}
		if st, err := kv.ShardStore(0); err != nil || st != kv.RawStore() {
			t.Errorf("ShardStore(0) should alias RawStore(): %v, %v", st, err)
		}
	})
}

// TestKVCloseIdempotent pins the Close contract, one rule for every shard
// count: Close is safe to call twice (and concurrently with traffic), and
// writes after Close fail fast with ErrClosed — on every write path —
// instead of deadlocking on a dead writer or mutating a store its owner
// believes quiesced. Reads keep working.
func TestKVCloseIdempotent(t *testing.T) {
	for _, shards := range []int{3, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			kv, err := OpenKV(Options{Shards: shards, PageSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			if err := kv.Put(k(1), v(1)); err != nil {
				t.Fatal(err)
			}
			kv.Close()
			kv.Close() // second Close must be a no-op

			done := make(chan error, 1)
			go func() { done <- kv.Put(k(2), v(2)) }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Put after Close = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Put after Close deadlocked")
			}
			op := []Op{{Kind: OpPut, Key: k(2), Val: v(2)}}
			if err := kv.ApplyBatch(op)[0]; !errors.Is(err, ErrClosed) {
				t.Fatalf("ApplyBatch after Close = %v, want ErrClosed", err)
			}
			var sp Submission
			errs := make([]error, 1)
			if kv.Submit(&sp, op, errs, nil); !errors.Is(errs[0], ErrClosed) {
				t.Fatalf("Submit after Close = %v, want ErrClosed", errs[0])
			}
			if shards == 1 {
				err := kv.Batch(func(tx BatchTx) error { return tx.Insert(k(2), v(2)) })
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Batch after Close = %v, want ErrClosed", err)
				}
			}
			if got, ok, err := kv.Get(k(1)); err != nil || !ok || string(got) != string(v(1)) {
				t.Fatalf("Get after Close: %q %v %v", got, ok, err)
			}
			if _, ok, _ := kv.Get(k(2)); ok {
				t.Fatal("a write after Close was applied")
			}
		})
	}
	t.Run("after-crashed-shard", func(t *testing.T) {
		kv, err := OpenKV(Options{Shards: 2, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := kv.ShardSystem(0)
		if err != nil {
			t.Fatal(err)
		}
		sys.CrashAfter(50) // fail shard 0 inside an early batch
		sawCrash := false
		for i := 0; i < 500 && !sawCrash; i++ {
			if err := kv.Put(k(i), v(i)); errors.Is(err, ErrShardCrashed) {
				sawCrash = true
			}
		}
		if !sawCrash {
			t.Fatal("crash injector never fired")
		}
		// Close with one shard crashed must neither hang nor panic — twice.
		closed := make(chan struct{})
		go func() { kv.Close(); kv.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close after shard crash hung")
		}
	})
}

// TestOneShardEquivalence pins what "Shards <= 1 is a one-shard engine" must
// not change: the same op stream — Insert/Put/Delete one at a time, then
// ApplyBatch chunks, each with ops that fail — driven into a Shards: 1 KV
// and into a bare btree.Tree on an identical newDB machine leaves both
// machines with the same simulated clock, PM counters and phase breakdown,
// on every scheme. That covers a rejected op paying no commit, and Put on an
// existing key being one upsert transaction.
//
// Reads are where the engine differs: Get/Scan walk the committed snapshot,
// which advances no clock and fills no emulated cache line, so the
// reference tree does no reads at all.
func TestOneShardEquivalence(t *testing.T) {
	const maxBatch = 8
	stream := func(t *testing.T, insert, put, del func(k, v []byte) error, batch func([]Op) []error, get func(k []byte), scan func()) {
		want := func(err error, ok bool, what string) {
			t.Helper()
			if (err == nil) != ok {
				t.Fatalf("%s: err = %v, want success=%v", what, err, ok)
			}
		}
		for i := 0; i < 60; i++ {
			want(insert(k(i), v(i)), true, "insert")
		}
		want(insert(k(7), v(0)), false, "duplicate insert")
		want(put(k(7), v(70)), true, "put existing")
		want(put(k(100), v(100)), true, "put new")
		want(del(k(3), nil), true, "delete")
		want(del(k(3), nil), false, "delete absent")
		get(k(7))
		// Two ApplyBatch chunks of maxBatch: one mixed, one where every op is
		// refused (and therefore must roll back, not commit).
		var ops []Op
		for i := 0; i < maxBatch; i++ {
			ops = append(ops, Op{Kind: OpInsert, Key: k(200 + i), Val: v(i)})
		}
		ops[2] = Op{Kind: OpInsert, Key: k(7), Val: v(0)}
		ops[5] = Op{Kind: OpUpdate, Key: k(999), Val: v(0)}
		for i := 0; i < maxBatch; i++ {
			ops = append(ops, Op{Kind: OpDelete, Key: k(900 + i)})
		}
		for i, err := range batch(ops) {
			want(err, i < maxBatch && i != 2 && i != 5, fmt.Sprintf("batch op %d", i))
		}
		scan()
		want(put(k(7), v(71)), true, "put after batch")
	}

	for _, scheme := range []string{SchemeFASTPlus, SchemeFAST, SchemeNVWAL, SchemeWAL, SchemeJournal} {
		t.Run(scheme, func(t *testing.T) {
			opts := Options{Scheme: scheme, PageSize: 1024, CacheBytes: 16 << 10,
				Shards: 1, MaxBatch: maxBatch}
			kv, err := OpenKV(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			stream(t, kv.Insert, kv.Put,
				func(k, _ []byte) error { return kv.Delete(k) },
				kv.ApplyBatch,
				func(k []byte) { kv.Get(k) },
				func() { kv.Scan(nil, nil, func(_, _ []byte) bool { return true }) })

			ref, err := newDB(opts)
			if err != nil {
				t.Fatal(err)
			}
			tree := btree.New(ref.store)
			stream(t, tree.Insert, tree.Put,
				func(k, _ []byte) error { return tree.Delete(k) },
				func(ops []Op) []error {
					errs := make([]error, len(ops))
					shard.ApplyOps(tree, maxBatch, ops, errs)
					return errs
				},
				func([]byte) {},
				func() {})

			if got, want := kv.SimulatedNS(), ref.SimulatedNS(); got != want {
				t.Errorf("simulated time: one-shard KV %d ns, bare tree %d ns", got, want)
			}
			if got, want := kv.PMStats(), ref.PMStats(); got != want {
				t.Errorf("PM stats:\n  KV   %+v\n  tree %+v", got, want)
			}
			if got, want := kv.Phases(), ref.sys.Clock().Phases(); !reflect.DeepEqual(got, want) {
				t.Errorf("phases:\n  KV   %v\n  tree %v", got, want)
			}
		})
	}
}

// TestKVMetrics exercises the facade surface in both modes plus the
// disabled path.
func TestKVMetrics(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		kv, err := OpenKV(Options{PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		const n = 100 // past the recorder's default sampling period of 64
		for i := 0; i < n; i++ {
			if err := kv.Put(k(i), v(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := kv.Get(k(3)); err != nil {
			t.Fatal(err)
		}
		m := kv.Metrics()
		if got := m.OpStats(obsv.OpPut); got.Count != n || got.SimP50NS <= 0 {
			t.Fatalf("put stats = %+v", got)
		}
		if m.OpStats(obsv.OpGet).Count != 1 {
			t.Fatalf("get count = %d", m.OpStats(obsv.OpGet).Count)
		}
		if m.Events.Flush <= 0 || m.Events.Fence <= 0 {
			t.Fatalf("commit-path events not bridged: %+v", m.Events)
		}
		// Every in-place commit installs one slot header with one HTM write.
		if e := m.Events; e.InPlaceInstall == 0 || e.InPlaceInstall != e.HTMCommit {
			t.Fatalf("in-place installs not bridged: %+v", e)
		}
		if m.FlushPer.Count != n {
			t.Fatalf("per-txn flush histogram count = %d, want %d", m.FlushPer.Count, n)
		}
		if len(kv.TraceSample()) == 0 {
			t.Fatal("no trace samples")
		}
	})
	t.Run("sharded", func(t *testing.T) {
		kv, err := OpenKV(Options{Shards: 4, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		const n = 200
		for i := 0; i < n; i++ {
			if err := kv.Put(k(i), v(i)); err != nil {
				t.Fatal(err)
			}
		}
		m := kv.Metrics()
		if got := m.OpStats(obsv.OpPut); got.Count != n {
			t.Fatalf("put wall count = %d, want %d", got.Count, n)
		}
		if m.Batches <= 0 || m.BatchSize.Count != m.Batches {
			t.Fatalf("batch accounting: %+v", m)
		}
		if m.Events.Flush <= 0 {
			t.Fatalf("events not bridged: %+v", m.Events)
		}
		if len(kv.TraceSample()) == 0 {
			t.Fatal("no trace samples")
		}
	})
	t.Run("disabled", func(t *testing.T) {
		kv, err := OpenKV(Options{Shards: 2, PageSize: 1024, DisableMetrics: true})
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		for i := 0; i < 20; i++ {
			if err := kv.Put(k(i), v(i)); err != nil {
				t.Fatal(err)
			}
		}
		m := kv.Metrics()
		if len(m.Ops) != 0 || m.Batches != 0 || m.Seen != 0 {
			t.Fatalf("disabled metrics recorded: %+v", m)
		}
		if kv.TraceSample() != nil || kv.SlowOps() != nil {
			t.Fatal("disabled store returned samples")
		}
	})
}

// TestServeMetricsScrape spins up the exporter on an ephemeral port and
// asserts the acceptance criteria: valid Prometheus text carrying per-shard
// op counts and the batch-size histogram for a 4-shard store.
func TestServeMetricsScrape(t *testing.T) {
	kv, err := OpenKV(Options{Shards: 4, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 100; i++ {
		if err := kv.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status=%d err=%v", resp.StatusCode, err)
	}
	if err := obsv.ValidatePrometheus(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"fasp_shard_ops_total", "fasp_batch_size_bucket",
		"fasp_ops_total", "fasp_shard_healthy",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("series %q missing from /metrics", want)
		}
	}
	// All four shards are present and healthy.
	for _, shard := range []string{`shard="0"`, `shard="1"`, `shard="2"`, `shard="3"`} {
		if !strings.Contains(text, shard) {
			t.Errorf("per-shard series for %s missing", shard)
		}
	}

	// The expvar mirror parses as JSON and carries this store.
	resp, err = http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(vars, &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := decoded["fasp"]; !ok {
		t.Fatal("/debug/vars has no fasp variable")
	}
}

// TestMetricsAllocParity is the differential allocation guard: a
// metrics-enabled store must allocate exactly as much per read as a
// disabled one — the instrumentation layer itself adds zero heap
// allocations (proven directly in internal/obsv; this pins the wiring).
// Under the race detector sync.Pool drops items at random, so both arms
// still run but their counts are not compared.
func TestMetricsAllocParity(t *testing.T) {
	measure := func(disable bool) float64 {
		kv, err := OpenKV(Options{PageSize: 1024, DisableMetrics: disable})
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		for i := 0; i < 100; i++ {
			if err := kv.Put(k(i), v(i)); err != nil {
				t.Fatal(err)
			}
		}
		key := k(42)
		return testing.AllocsPerRun(500, func() {
			if _, _, err := kv.Get(key); err != nil {
				t.Fatal(err)
			}
		})
	}
	on, off := measure(false), measure(true)
	if !raceEnabled && on != off {
		t.Fatalf("metrics-enabled Get allocates %v/op vs %v/op disabled — instrumentation leaks allocations", on, off)
	}
}
