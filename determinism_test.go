package fasp_test

// The golden determinism test pins the simulated-time behavior of the whole
// stack: the deterministic clock, the latency accounting, the cache overlay's
// hit/miss/eviction behavior, and the crash-lottery semantics. Wall-clock
// optimisations of the PM emulation (slab allocators, handle recycling,
// scratch buffers) must NOT change any number in testdata/golden.json —
// simulated results stay bit-identical while the emulation gets faster.
//
// Regenerate (only when simulated behavior is *intentionally* changed):
//
//	go test -run TestGoldenDeterminism -update-golden .

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fasp"
	"fasp/internal/btree"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
	"fasp/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current behavior")

// goldenRecord captures every observable output of the fixed workload on one
// scheme: simulated time, phase breakdowns, architectural event counters,
// overlay occupancy, and a content checksum of the surviving tree.
type goldenRecord struct {
	SimNS       int64            `json:"sim_ns"`
	Fences      int64            `json:"fences"`
	CrashPoints int64            `json:"crash_points"`
	Resident    int              `json:"resident_lines"`
	Dirty       int              `json:"dirty_lines"`
	Count       int              `json:"count"`
	TreeSum     uint64           `json:"tree_sum"`
	PM          pmem.Stats       `json:"pm_stats"`
	Phases      map[string]int64 `json:"phases"`
}

// goldenEnv builds a machine with a deliberately small CPU-cache overlay
// (256 lines) so the workload churns through FIFO eviction, and page-size
// 1024 so it splits often. The baselines get a 1 MiB log that checkpoints
// at 128 KiB.
func goldenEnv(s scheme.Scheme) (*pmem.System, scheme.Store, scheme.Geometry) {
	lat := pmem.DefaultLatencies(300, 300)
	lat.CacheBytes = 16 << 10
	sys := pmem.NewSystem(lat)
	g := scheme.Geometry{PageSize: 1024, MaxPages: 2048, LogBytes: 256 << 10}
	if !s.IsFAST() {
		g.LogBytes, g.CheckpointBytes = 1<<20, 128<<10
	}
	return sys, s.Create(sys, g), g
}

// runGoldenWorkload drives the fixed workload on one scheme and returns its
// observable record.
func runGoldenWorkload(t *testing.T, s scheme.Scheme) goldenRecord {
	t.Helper()
	sys, st, g := goldenEnv(s)
	arena := st.Arena()
	tree := btree.New(st)
	gen := workload.New(workload.Config{Seed: 11, RecordSize: 100})

	var keys [][]byte
	for i := 0; i < 400; i++ {
		k := gen.NextKey()
		keys = append(keys, k)
		if err := tree.Insert(k, gen.NextValue()); err != nil {
			t.Fatalf("%s insert %d: %v", s, i, err)
		}
	}
	for i := 0; i < 60; i++ {
		if err := tree.Update(keys[(i*3)%400], gen.ValueOfSize(120)); err != nil {
			t.Fatalf("%s update %d: %v", s, i, err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := tree.Delete(keys[(i*7)%280]); err != nil {
			t.Fatalf("%s delete %d: %v", s, i, err)
		}
	}
	for _, k := range keys {
		if _, _, err := tree.Get(k); err != nil {
			t.Fatalf("%s get: %v", s, err)
		}
	}
	// One multi-insert transaction (FAST+ takes its logged fallback here).
	tx, err := tree.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tx.Insert(gen.NextKey(), gen.NextValue()); err != nil {
			t.Fatalf("%s batch insert: %v", s, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("%s batch commit: %v", s, err)
	}

	// Crash mid-workload, run the eviction lottery, recover, keep going.
	sys.CrashAfter(1500)
	crashed := sys.RunToCrash(func() {
		for i := 0; i < 500; i++ {
			if err := tree.Insert(gen.NextKey(), gen.NextValue()); err != nil {
				panic(err)
			}
		}
	})
	if !crashed {
		t.Fatalf("%s: crash did not fire", s)
	}
	sys.Crash(pmem.CrashOptions{Seed: 7, EvictProb: 0.5})
	st2, err := s.Reattach(arena, g)
	if err != nil {
		t.Fatalf("%s recover: %v", s, err)
	}
	tree = btree.New(st2)
	for i := 0; i < 50; i++ {
		if err := tree.Insert(gen.NextKey(), gen.NextValue()); err != nil {
			t.Fatalf("%s post-crash insert: %v", s, err)
		}
	}

	// Fold the surviving contents into a checksum.
	h := fnv.New64a()
	count := 0
	if err := tree.Scan(nil, nil, func(k, v []byte) bool {
		h.Write(k)
		h.Write(v)
		count++
		return true
	}); err != nil {
		t.Fatalf("%s scan: %v", s, err)
	}

	return goldenRecord{
		SimNS:       sys.Clock().Now(),
		Fences:      sys.Fences(),
		CrashPoints: sys.CrashPoints(),
		Resident:    arena.ResidentLines(),
		Dirty:       arena.DirtyLines(),
		Count:       count,
		TreeSum:     h.Sum64(),
		PM:          arena.Stats(),
		Phases:      sys.Clock().Phases(),
	}
}

// TestGoldenDeterminism runs the fixed workload on all five schemes and
// compares every observable against testdata/golden.json.
func TestGoldenDeterminism(t *testing.T) {
	got := make(map[string]goldenRecord, len(scheme.All))
	for _, s := range scheme.All {
		got[s.String()] = runGoldenWorkload(t, s)
	}

	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, s := range scheme.All {
		g, w := got[s.String()], want[s.String()]
		if !reflect.DeepEqual(g, w) {
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			t.Errorf("%s: simulated behavior diverged from golden\n got: %s\nwant: %s", s, gj, wj)
		}
	}
}

// TestGoldenDeterminismStable re-runs one scheme twice in-process and
// requires identical records, guarding against map-iteration or other
// run-to-run nondeterminism sneaking into the emulation.
func TestGoldenDeterminismStable(t *testing.T) {
	a := runGoldenWorkload(t, scheme.FASTPlus)
	b := runGoldenWorkload(t, scheme.FASTPlus)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// goldenShardRecord pins one shard of the sharded golden workload: its
// full observable state (simulated time, op/batch counters, PM events,
// phase breakdown) plus a content checksum, so shard routing and batch
// boundaries are bit-stable across refactors.
type goldenShardRecord struct {
	Info    fasp.ShardInfo `json:"info"`
	Count   int            `json:"count"`
	TreeSum uint64         `json:"tree_sum"`
}

// runGoldenShardedWorkload drives a fixed workload through the facade's
// deterministic ApplyBatch path on a Shards=4 store — batch boundaries are
// a pure function of the op sequence (chunks of MaxBatch per shard, each
// shard's ops in submission order), so per-shard simulated time is
// reproducible, unlike the timing-dependent mailbox path.
func runGoldenShardedWorkload(t *testing.T) []goldenShardRecord {
	t.Helper()
	const shards = 4
	kv, err := fasp.OpenKV(fasp.Options{
		Scheme: "fast+", Shards: shards, MaxBatch: 16,
		PageSize: 1024, MaxPages: 2048, CacheBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	gen := workload.New(workload.Config{Seed: 11, RecordSize: 100})

	apply := func(ops []fasp.Op) {
		t.Helper()
		for i, err := range kv.ApplyBatch(ops) {
			if err != nil {
				t.Fatalf("sharded golden op %d (%s): %v", i, ops[i].Kind, err)
			}
		}
	}
	var keys [][]byte
	ops := make([]fasp.Op, 0, 600)
	for i := 0; i < 600; i++ {
		k := gen.NextKey()
		keys = append(keys, k)
		ops = append(ops, fasp.Op{Kind: fasp.OpInsert, Key: k, Val: gen.NextValue()})
	}
	apply(ops)
	ops = ops[:0]
	for i := 0; i < 80; i++ {
		ops = append(ops, fasp.Op{Kind: fasp.OpPut, Key: keys[(i*3)%600], Val: gen.ValueOfSize(120)})
	}
	apply(ops)
	ops = ops[:0]
	for i := 0; i < 50; i++ {
		ops = append(ops, fasp.Op{Kind: fasp.OpDelete, Key: keys[(i*7)%400]})
	}
	apply(ops)

	// Whole-engine power failure on group-commit boundaries: each shard
	// runs the eviction lottery with a per-shard decorrelated seed.
	kv.Crash(pmem.CrashOptions{Seed: 7, EvictProb: 0.5})
	if err := kv.ReopenKV(); err != nil {
		t.Fatal(err)
	}
	ops = ops[:0]
	for i := 0; i < 100; i++ {
		ops = append(ops, fasp.Op{Kind: fasp.OpInsert, Key: gen.NextKey(), Val: gen.NextValue()})
	}
	apply(ops)

	recs := make([]goldenShardRecord, shards)
	for i := 0; i < shards; i++ {
		in, err := kv.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		rec := goldenShardRecord{Info: in}
		h := fnv.New64a()
		if err := kv.ShardScan(i, nil, nil, func(k, v []byte) bool {
			h.Write(k)
			h.Write(v)
			rec.Count++
			return true
		}); err != nil {
			t.Fatalf("shard %d scan: %v", i, err)
		}
		rec.TreeSum = h.Sum64()
		recs[i] = rec
	}
	return recs
}

// TestGoldenShardedDeterminism compares the Shards=4 workload's per-shard
// records against testdata/golden_shards.json. Regenerate only on an
// intentional simulated-behavior change:
//
//	go test -run TestGoldenShardedDeterminism -update-golden .
func TestGoldenShardedDeterminism(t *testing.T) {
	got := runGoldenShardedWorkload(t)

	path := filepath.Join("testdata", "golden_shards.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("sharded golden rewritten: %s", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read sharded golden (run with -update-golden to create): %v", err)
	}
	var want []goldenShardRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d shards, run produced %d", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			gj, _ := json.Marshal(got[i])
			wj, _ := json.Marshal(want[i])
			t.Errorf("shard %d: simulated behavior diverged from golden\n got: %s\nwant: %s", i, gj, wj)
		}
	}
}

// TestGoldenShardedStable re-runs the sharded workload twice in-process
// and requires identical per-shard records.
func TestGoldenShardedStable(t *testing.T) {
	a := runGoldenShardedWorkload(t)
	b := runGoldenShardedWorkload(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical sharded runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}

var _ = fmt.Sprintf // keep fmt imported if error paths are trimmed
