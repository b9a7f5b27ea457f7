package fasp

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"fasp/internal/obsv"
	"fasp/internal/pmem"
)

// TestSchemeValidation pins the Options.Scheme contract: names are
// case-insensitive, the journal/nvwal baselines are accepted spellings, and
// anything else fails Open/OpenKV with a wrapped ErrBadScheme.
func TestSchemeValidation(t *testing.T) {
	cases := []struct {
		scheme string
		ok     bool
	}{
		{"", true}, // default fast+
		{"fast+", true},
		{"FAST+", true},
		{"Fast", true},
		{"fast", true},
		{"wal", true},
		{"WAL", true},
		{"nvwal", true},
		{"NVWAL", true},
		{"NvWal", true},
		{"journal", true},
		{"Journal", true},
		{"JOURNAL", true},
		{"lsm", false},
		{"fast++", false},
		{"fast plus", false},
		{"wal ", false}, // no trimming: exact names only
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("kv_%q", tc.scheme), func(t *testing.T) {
			kv, err := OpenKV(Options{Scheme: tc.scheme})
			if tc.ok {
				if err != nil {
					t.Fatalf("OpenKV(%q) failed: %v", tc.scheme, err)
				}
				kv.Close()
				return
			}
			if !errors.Is(err, ErrBadScheme) {
				t.Fatalf("OpenKV(%q): want ErrBadScheme, got %v", tc.scheme, err)
			}
		})
	}
	// The SQL facade and the sharded engine share the constructors; spot-check
	// that both surface the same typed error.
	if _, err := Open(Options{Scheme: "btrfs"}); !errors.Is(err, ErrBadScheme) {
		t.Fatalf("Open: want ErrBadScheme, got %v", err)
	}
	if _, err := OpenKV(Options{Scheme: "btrfs", Shards: 4}); !errors.Is(err, ErrBadScheme) {
		t.Fatalf("sharded OpenKV: want ErrBadScheme, got %v", err)
	}
	if _, err := OpenHash(Options{Scheme: "btrfs"}, 8); !errors.Is(err, ErrBadScheme) {
		t.Fatalf("OpenHash: want ErrBadScheme, got %v", err)
	}
}

// adaptiveKV opens a small sharded store with the given adaptive options.
func adaptiveKV(t *testing.T, opts Options) *KV {
	t.Helper()
	if opts.Shards == 0 {
		opts.Shards = 2
	}
	if opts.PageSize == 0 {
		opts.PageSize = 1024
	}
	if opts.MaxPages == 0 {
		opts.MaxPages = 4096
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 8
	}
	kv, err := OpenKV(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(kv.Close)
	return kv
}

func mustApply(t *testing.T, kv *KV, ops []Op) {
	t.Helper()
	for i, err := range kv.ApplyBatch(ops) {
		if err != nil {
			t.Fatalf("op %d (%s %q): %v", i, ops[i].Kind, ops[i].Key, err)
		}
	}
}

func akey(i int) []byte { return []byte(fmt.Sprintf("a%06d", i)) }
func aval(i int) []byte { return []byte(fmt.Sprintf("value-%06d-%032d", i, i)) }

// shardKeys partitions keys by the engine's routing so tests can address a
// specific shard deterministically.
func shardKeys(kv *KV, keys [][]byte) [][][]byte {
	out := make([][][]byte, kv.Shards())
	for _, k := range keys {
		si := kv.eng.ShardFor(k)
		out[si] = append(out[si], k)
	}
	return out
}

// TestAdaptiveSchemeMigration drives the controller through both migration
// families end to end on the deterministic ApplyBatch path: a batch-heavy
// phase pushes every shard fast+ → wal (cross-family copy), then a trickle of
// single-leaf updates pulls it wal → fast+ (cross-family back). Contents and
// structure must survive both hops.
func TestAdaptiveSchemeMigration(t *testing.T) {
	kv := adaptiveKV(t, Options{Scheme: SchemeFASTPlus, AdaptiveScheme: true})

	// Phase 1: batch-heavy inserts. 64 ops/call across 2 shards with
	// MaxBatch 8 → mean batch ≈ 8 ≥ BatchHi(6) → target wal; window 32,
	// hysteresis 2 → migration at the 64th sample.
	var keys [][]byte
	id := 0
	for call := 0; call < 70; call++ {
		ops := make([]Op, 0, 64)
		for j := 0; j < 64; j++ {
			k := akey(id)
			keys = append(keys, k)
			ops = append(ops, Op{Kind: OpInsert, Key: k, Val: aval(id)})
			id++
		}
		mustApply(t, kv, ops)
	}
	for i := 0; i < kv.Shards(); i++ {
		if s, _ := kv.ShardScheme(i); s != SchemeWAL {
			tr, _ := kv.TuneTrace(i)
			t.Fatalf("shard %d: scheme = %q after batch-heavy phase, want wal (trace %+v)", i, s, tr)
		}
	}

	// The migration must be visible in the decision trace.
	for i := 0; i < kv.Shards(); i++ {
		tr, err := kv.TuneTrace(i)
		if err != nil {
			t.Fatal(err)
		}
		migrated := false
		for _, d := range tr {
			if d.Migrated && d.Migrate == SchemeWAL {
				migrated = true
			}
		}
		if !migrated {
			t.Fatalf("shard %d: no Migrated=true wal entry in trace %+v", i, tr)
		}
	}

	// Phase 2: single-leaf trickle. One single-op chunk per shard per call →
	// mean batch 1, single-leaf fraction 1 → target fast+ after the
	// post-migration cooldown (2 windows) plus hysteresis (2 windows).
	byShard := shardKeys(kv, keys)
	for call := 0; call < 150; call++ {
		var ops []Op
		for si := 0; si < kv.Shards(); si++ {
			k := byShard[si][call%len(byShard[si])]
			ops = append(ops, Op{Kind: OpUpdate, Key: k, Val: aval(call)})
		}
		mustApply(t, kv, ops)
	}
	for i := 0; i < kv.Shards(); i++ {
		if s, _ := kv.ShardScheme(i); s != SchemeFASTPlus {
			tr, _ := kv.TuneTrace(i)
			t.Fatalf("shard %d: scheme = %q after single-leaf phase, want fast+ (trace %+v)", i, s, tr)
		}
	}

	// Both hops preserved every record.
	if err := kv.Validate(); err != nil {
		t.Fatalf("validate after migrations: %v", err)
	}
	n, err := kv.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("count = %d, want %d", n, len(keys))
	}
	for i, k := range keys {
		v, ok, err := kv.Get(k)
		if err != nil || !ok {
			t.Fatalf("key %d lost after migrations (ok=%v err=%v)", i, ok, err)
		}
		_ = v
	}
}

// TestAdaptiveMigrationSurvivesCrash checks the persisted scheme tag: after
// an online migration, a whole-store power failure plus recovery must come
// back under the migrated scheme (not Options.Scheme) with contents intact.
func TestAdaptiveMigrationSurvivesCrash(t *testing.T) {
	kv := adaptiveKV(t, Options{Scheme: SchemeFASTPlus, AdaptiveScheme: true})

	var keys [][]byte
	id := 0
	for call := 0; call < 66; call++ {
		ops := make([]Op, 0, 64)
		for j := 0; j < 64; j++ {
			k := akey(id)
			keys = append(keys, k)
			ops = append(ops, Op{Kind: OpInsert, Key: k, Val: aval(id)})
			id++
		}
		mustApply(t, kv, ops)
	}
	for i := 0; i < kv.Shards(); i++ {
		if s, _ := kv.ShardScheme(i); s != SchemeWAL {
			t.Fatalf("shard %d: scheme = %q, want wal before crash", i, s)
		}
	}

	kv.Crash(pmem.CrashOptions{Seed: 3, EvictProb: 0.5})
	if err := kv.ReopenKV(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for i := 0; i < kv.Shards(); i++ {
		if s, _ := kv.ShardScheme(i); s != SchemeWAL {
			t.Fatalf("shard %d: recovery resolved scheme %q, want wal (tag ignored?)", i, s)
		}
	}
	if err := kv.Validate(); err != nil {
		t.Fatalf("validate after recovery: %v", err)
	}
	for i, k := range keys {
		if _, ok, err := kv.Get(k); err != nil || !ok {
			t.Fatalf("key %d lost across crash (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestAdaptiveDefrag drives the proactive defragmentation loop: deletes
// carve dead space into committed leaves, the next decision window measures
// the fragmentation ratio, and the defrag pass rewrites hot leaves
// copy-on-write without disturbing live records.
func TestAdaptiveDefrag(t *testing.T) {
	kv := adaptiveKV(t, Options{Scheme: SchemeFASTPlus, DefragThreshold: 0.2})

	var keys [][]byte
	var ops []Op
	for i := 0; i < 600; i++ {
		k := akey(i)
		keys = append(keys, k)
		ops = append(ops, Op{Kind: OpInsert, Key: k, Val: aval(i)})
	}
	mustApply(t, kv, ops)
	ops = ops[:0]
	for i := 0; i < 600; i += 2 {
		ops = append(ops, Op{Kind: OpDelete, Key: keys[i]})
	}
	mustApply(t, kv, ops)

	// Trickle updates until decision windows close on every shard (32
	// samples each); window close measures fragmentation and defrags.
	live := make([][]byte, 0, 300)
	for i := 1; i < 600; i += 2 {
		live = append(live, keys[i])
	}
	byShard := shardKeys(kv, live)
	for call := 0; call < 80; call++ {
		var batch []Op
		for si := 0; si < kv.Shards(); si++ {
			k := byShard[si][call%len(byShard[si])]
			batch = append(batch, Op{Kind: OpUpdate, Key: k, Val: aval(call + 7000)})
		}
		mustApply(t, kv, batch)
	}

	defragged := 0
	for i := 0; i < kv.Shards(); i++ {
		frag, err := kv.ShardFragmentation(i)
		if err != nil {
			t.Fatal(err)
		}
		if frag < 0 {
			t.Fatalf("shard %d: fragmentation never measured", i)
		}
		tr, err := kv.TuneTrace(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr) == 0 {
			t.Fatalf("shard %d: no decision windows closed", i)
		}
		measured := false
		for _, d := range tr {
			if d.FragPct >= 0 {
				measured = true
			}
			defragged += d.DefragPages
		}
		if !measured {
			t.Fatalf("shard %d: no window measured fragmentation (trace %+v)", i, tr)
		}
	}
	if defragged == 0 {
		t.Fatalf("no leaves were proactively defragmented")
	}

	if err := kv.Validate(); err != nil {
		t.Fatalf("validate after defrag: %v", err)
	}
	for i := 1; i < 600; i += 2 {
		if _, ok, err := kv.Get(keys[i]); err != nil || !ok {
			t.Fatalf("live key %d lost after defrag (ok=%v err=%v)", i, ok, err)
		}
	}
	for i := 0; i < 600; i += 2 {
		if _, ok, _ := kv.Get(keys[i]); ok {
			t.Fatalf("deleted key %d resurrected by defrag", i)
		}
	}
}

// TestAdaptiveBatchBounds checks the AIMD loop stays inside its clamp and
// that ApplyBatch chunks at the live per-shard bound.
func TestAdaptiveBatchBounds(t *testing.T) {
	kv := adaptiveKV(t, Options{Scheme: SchemeFASTPlus, AdaptiveBatch: true, MaxBatch: 8})
	var ops []Op
	for i := 0; i < 2400; i++ {
		ops = append(ops, Op{Kind: OpPut, Key: akey(i % 500), Val: aval(i)})
		if len(ops) == 48 {
			mustApply(t, kv, ops)
			ops = ops[:0]
		}
	}
	floor, ceil := 2, 32 // max(1, 8/4), 8*4
	for i := 0; i < kv.Shards(); i++ {
		mb, err := kv.ShardMaxBatch(i)
		if err != nil {
			t.Fatal(err)
		}
		if mb < floor || mb > ceil {
			t.Fatalf("shard %d: live batch bound %d outside [%d, %d]", i, mb, floor, ceil)
		}
	}
	if err := kv.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveConcurrentStress is the race-detector arm (run with -race in
// CI): every adaptive loop on at once while concurrent writers and
// optimistic readers hammer the store through the mailbox path, so scheme
// migrations and defrag passes race epoch-pinned reads.
func TestAdaptiveConcurrentStress(t *testing.T) {
	kv := adaptiveKV(t, Options{
		Scheme:          SchemeFASTPlus,
		Shards:          4,
		AdaptiveScheme:  true,
		AdaptiveBatch:   true,
		DefragThreshold: 0.2,
	})
	const writers, readers, perW = 4, 4, 300
	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < perW; i++ {
				id := w*perW + i
				if err := kv.Put(akey(id), aval(id)); err != nil {
					t.Errorf("put %d: %v", id, err)
					return
				}
				if i%8 == 7 {
					ops := make([]Op, 16)
					for j := range ops {
						// Upsert keys inside this writer's own id range so
						// the final count is exact.
						k := w*perW + (i-j+perW)%perW
						ops[j] = Op{Kind: OpPut, Key: akey(k), Val: aval(id + j)}
					}
					for _, err := range kv.ApplyBatch(ops) {
						if err != nil {
							t.Errorf("batch: %v", err)
							return
						}
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := kv.Get(akey((r*131 + i) % (writers * perW))); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if i%64 == 0 {
					if err := kv.Scan(akey(0), akey(200), func(k, v []byte) bool { return true }); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				}
			}
		}(r)
	}
	// Writers finish first; only then are the readers released, so reads
	// race live migrations for the whole run.
	wwg.Wait()
	close(stop)
	rwg.Wait()
	if err := kv.Validate(); err != nil {
		t.Fatalf("validate after stress: %v", err)
	}
	n, err := kv.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*perW {
		t.Fatalf("count = %d, want %d", n, writers*perW)
	}

	// The tuner must have been live on the mailbox path too.
	sawWindow := false
	for i := 0; i < kv.Shards(); i++ {
		tr, _ := kv.TuneTrace(i)
		if len(tr) > 0 {
			sawWindow = true
		}
	}
	if !sawWindow {
		t.Fatal("no decision window closed during stress run")
	}
}

// phaseSim drives one fixed three-phase ApplyBatch stream through a 2-shard
// store opened on scheme start — insert-heavy (420 eight-op calls),
// update-heavy (600 two-op calls scattered over the key space, every
// per-shard commit a single-leaf transaction), scan-heavy (40 full scans
// over a 240-update trickle that keeps decision windows closing) — and
// returns each phase's simulated cost (the slowest shard's clock advance
// plus the scans' simulated read work) and the per-shard schemes at each
// phase end. ApplyBatch on a sharded store is deterministic, so the numbers
// are a pure function of the op sequence.
func phaseSim(t *testing.T, start string, adaptive bool) (sim [3]int64, schemes [3][]string) {
	t.Helper()
	opts := Options{Scheme: start, Shards: 2, MaxBatch: 8}
	if adaptive {
		opts.AdaptiveScheme = true
		opts.AdaptiveBatch = true
		// There are no idle slots on the ApplyBatch path to hide proactive
		// defrag rewrites in; arm it only past what this workload reaches
		// (the adaptive golden pins the defrag loop).
		opts.DefragThreshold = 0.45
	}
	kv, err := OpenKV(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	key := func(i int) []byte { return []byte(fmt.Sprintf("p%07d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("phase-value-%07d-%048d", i, i)) }
	cost := func() int64 {
		scans := kv.Metrics().OpStats(obsv.OpScan)
		return kv.EngineStats().SimMaxNS + int64(scans.SimMeanNS*float64(scans.Count))
	}
	phase, base := 0, cost()
	closePhase := func() {
		now := cost()
		sim[phase] = now - base
		for i := 0; i < kv.Shards(); i++ {
			s, _ := kv.ShardScheme(i)
			schemes[phase] = append(schemes[phase], s)
		}
		phase, base = phase+1, now
	}

	const total = 420 * 8
	for id := 0; id < total; id += 8 {
		ops := make([]Op, 8)
		for j := range ops {
			ops[j] = Op{Kind: OpInsert, Key: key(id + j), Val: val(id + j)}
		}
		mustApply(t, kv, ops)
	}
	closePhase()

	for c := 0; c < 600; c++ {
		mustApply(t, kv, []Op{
			{Kind: OpUpdate, Key: key((c * 997) % total), Val: val(c + total)},
			{Kind: OpUpdate, Key: key((c*997 + total/2) % total), Val: val(c + 2*total)},
		})
	}
	closePhase()

	for c := 0; c < 240; c++ {
		mustApply(t, kv, []Op{{Kind: OpUpdate, Key: key((c * 31) % total), Val: val(c + 3*total)}})
		if c%6 == 0 {
			if err := kv.Scan(nil, nil, func(k, v []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
	}
	closePhase()
	return sim, schemes
}

// TestAdaptiveTracksBestPinned pins the controller's two performance
// claims on the simulated clock. Started on the right scheme, it costs what
// the best pinned scheme costs in every phase: its decisions match the
// emulator's cost ordering and its bookkeeping (window accounting,
// fragmentation scans) is ~free. Started on a deliberately wrong pin (wal),
// it migrates away within the first phase and erases most of the price of
// that pin.
func TestAdaptiveTracksBestPinned(t *testing.T) {
	sum := func(p [3]int64) int64 { return p[0] + p[1] + p[2] }
	var best [3]int64
	var wal int64
	for _, scheme := range []string{SchemeFASTPlus, SchemeFAST, SchemeWAL} {
		sim, _ := phaseSim(t, scheme, false)
		for ph, ns := range sim {
			if best[ph] == 0 || ns < best[ph] {
				best[ph] = ns
			}
		}
		if scheme == SchemeWAL {
			wal = sum(sim)
		}
	}

	warm, _ := phaseSim(t, SchemeFASTPlus, true)
	for ph, name := range []string{"insert-heavy", "update-heavy", "scan-heavy"} {
		if float64(warm[ph]) > 1.005*float64(best[ph]) {
			t.Errorf("%s: adaptive %d sim ns > 100.5%% of best pinned %d", name, warm[ph], best[ph])
		}
	}

	cold, schemes := phaseSim(t, SchemeWAL, true)
	for i, s := range schemes[1] {
		if s != SchemeFASTPlus {
			t.Errorf("adaptive-cold: shard %d on %q at the end of the update phase, want fast+", i, s)
		}
	}
	if sum(cold) > wal/4 {
		t.Errorf("adaptive-cold: %d sim ns > 25%% of pinned wal %d", sum(cold), wal)
	}
	t.Logf("sim ns per phase: best pinned %v, adaptive %v, adaptive-cold %v (schemes %v); pinned wal total %d",
		best, warm, cold, schemes, wal)
}
