package fasp_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fasp"
)

// goldenDefragRecord pins one shard of the defrag golden workload: its
// simulated time, clflush count, the leaves proactive defragmentation
// rewrote, and a content checksum. Measurement windows and defrag passes
// are a pure function of the op sequence on the ApplyBatch path, so any
// drift in the window count, the fragmentation scan, or the copy-on-write
// rewrite shows up as a golden diff.
type goldenDefragRecord struct {
	SimNS       int64  `json:"sim_ns"`
	FlushCalls  int64  `json:"flush_calls"`
	DefragPages int64  `json:"defrag_pages"`
	Count       int    `json:"count"`
	TreeSum     uint64 `json:"tree_sum"`
}

// runGoldenDefragWorkload drives proactive defragmentation through a fixed
// three-phase workload on the deterministic ApplyBatch path:
//
//  1. batch-heavy inserts (70 calls of 64 ops, chunked at MaxBatch 8);
//  2. deletes — carve dead space so fragmentation crosses the threshold;
//  3. 300 two-op update calls, whose write rounds close the measurement
//     windows that find and rewrite the fragmented leaves.
func runGoldenDefragWorkload(t *testing.T) []goldenDefragRecord {
	t.Helper()
	const shards = 2
	kv, err := fasp.OpenKV(fasp.Options{
		Scheme: "fast+", Shards: shards, MaxBatch: 8,
		PageSize: 1024, MaxPages: 4096, CacheBytes: 16 << 10,
		DefragThreshold: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	apply := func(ops []fasp.Op) {
		t.Helper()
		for i, err := range kv.ApplyBatch(ops) {
			if err != nil {
				t.Fatalf("defrag golden op %d (%s): %v", i, ops[i].Kind, err)
			}
		}
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("g%06d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%06d-%040d", i, i)) }

	// Phase 1: 70 batch-heavy calls (64 ops each).
	var keys [][]byte
	id := 0
	for call := 0; call < 70; call++ {
		ops := make([]fasp.Op, 0, 64)
		for j := 0; j < 64; j++ {
			k := key(id)
			keys = append(keys, k)
			ops = append(ops, fasp.Op{Kind: fasp.OpInsert, Key: k, Val: val(id)})
			id++
		}
		apply(ops)
	}

	// Phase 2: delete every third key.
	var ops []fasp.Op
	for i := 0; i < len(keys); i += 3 {
		ops = append(ops, fasp.Op{Kind: fasp.OpDelete, Key: keys[i]})
	}
	apply(ops)

	// Phase 3: 300 two-op update calls over surviving keys.
	var live [][]byte
	for i := range keys {
		if i%3 != 0 {
			live = append(live, keys[i])
		}
	}
	for call := 0; call < 300; call++ {
		apply([]fasp.Op{
			{Kind: fasp.OpUpdate, Key: live[(call*2)%len(live)], Val: val(call + 100000)},
			{Kind: fasp.OpUpdate, Key: live[(call*2+1)%len(live)], Val: val(call + 200000)},
		})
	}

	recs := make([]goldenDefragRecord, shards)
	for i := 0; i < shards; i++ {
		in, err := kv.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		rec := goldenDefragRecord{SimNS: in.SimNS, FlushCalls: in.PM.FlushCalls, DefragPages: in.DefragPages}
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

// TestGoldenDefragDeterminism compares the defrag workload's per-shard
// records against testdata/golden_defrag.json. Regenerate only on an
// intentional change to the simulated machine or the defrag schedule:
//
//	go test -run TestGoldenDefragDeterminism -update-golden .
func TestGoldenDefragDeterminism(t *testing.T) {
	got := runGoldenDefragWorkload(t)

	path := filepath.Join("testdata", "golden_defrag.json")
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
		t.Logf("defrag golden rewritten: %s", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read defrag golden (run with -update-golden to create): %v", err)
	}
	var want []goldenDefragRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defrag workload diverged from golden\n got: %+v\nwant: %+v", got, want)
	}
	// The workload is built to exercise the loop: every shard must have
	// rewritten leaves.
	for i, rec := range got {
		if rec.DefragPages == 0 {
			t.Errorf("shard %d: workload no longer triggers proactive defrag", i)
		}
	}
}

// TestGoldenDefragStable re-runs the defrag workload twice in-process and
// requires identical records.
func TestGoldenDefragStable(t *testing.T) {
	a := runGoldenDefragWorkload(t)
	b := runGoldenDefragWorkload(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical defrag runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}
