package fasp

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// defragKV opens a small sharded store with the given options.
func defragKV(t *testing.T, opts Options) *KV {
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

// TestProactiveDefrag drives the proactive defragmentation loop: deletes
// carve dead space into committed leaves, every 32nd write round measures
// the fragmentation ratio, and the defrag pass rewrites hot leaves
// copy-on-write without disturbing live records.
func TestProactiveDefrag(t *testing.T) {
	kv := defragKV(t, Options{Scheme: SchemeFASTPlus, DefragThreshold: 0.2})
	keys := fragmentAndDefrag(t, kv)
	checkDefragContents(t, kv, keys)
}

// fragmentAndDefrag inserts 600 records, deletes every even one, and
// trickles updates until every shard has closed a defrag window, failing
// unless leaves were rewritten. It returns the keys in insertion order.
func fragmentAndDefrag(t *testing.T, kv *KV) [][]byte {
	t.Helper()
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

	// Trickle updates until every shard has applied 32 write rounds; the
	// 32nd measures fragmentation and defrags.
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

	var defragged int64
	for i := 0; i < kv.Shards(); i++ {
		frag, err := kv.ShardFragmentation(i)
		if err != nil {
			t.Fatal(err)
		}
		if frag < 0 {
			t.Fatalf("shard %d: fragmentation never measured", i)
		}
		in, err := kv.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		defragged += in.DefragPages
	}
	if defragged == 0 {
		t.Fatalf("no leaves were proactively defragmented")
	}
	return keys
}

// checkDefragContents fails unless kv holds exactly the odd keys of
// fragmentAndDefrag's set and its trees validate.
func checkDefragContents(t *testing.T, kv *KV, keys [][]byte) {
	t.Helper()
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

// TestDefragConcurrentStress is the race-detector arm (run with -race in
// CI): proactive defrag on while concurrent writers and optimistic readers
// hammer the store, so defrag passes — at the measurement and in idle
// slots — race epoch-pinned reads. Both write paths defrag: Put and
// ApplyBatch on the writers' own goroutines, and the mailbox path, where
// the shard's writer goroutine measures and defrags. Shard 0 is written
// through its mailbox alone (every other shard takes both paths), so its
// measurement can only have been taken by its writer goroutine.
func TestDefragConcurrentStress(t *testing.T) {
	kv := defragKV(t, Options{
		Scheme:          SchemeFASTPlus,
		Shards:          4,
		DefragThreshold: 0.2,
	})
	const writers, readers, perW = 4, 4, 300
	const mailOnly = 0 // the shard written through its mailbox alone
	// submit sends ops, all routed to shard si, through si's mailbox.
	submit := func(si int, ops []Op) error {
		errs := make([]error, len(ops))
		kv.SubmitShard(si, ops, errs)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < perW; i++ {
				id := w*perW + i
				k, v := akey(id), aval(id)
				var err error
				if si := kv.ShardOf(k); si == mailOnly || i%2 == 1 {
					err = submit(si, []Op{{Kind: OpPut, Key: k, Val: v}})
				} else {
					err = kv.Put(k, v)
				}
				if err != nil {
					t.Errorf("put %d: %v", id, err)
					return
				}
				if i%8 == 7 {
					// Upsert keys inside this writer's own id range so the
					// final count is exact; the mail-only shard's share goes
					// through its mailbox as one submission.
					var ops, mail []Op
					for j := 0; j < 16; j++ {
						k := w*perW + (i-j+perW)%perW
						op := Op{Kind: OpPut, Key: akey(k), Val: aval(id + j)}
						if kv.ShardOf(op.Key) == mailOnly {
							mail = append(mail, op)
						} else {
							ops = append(ops, op)
						}
					}
					for _, err := range kv.ApplyBatch(ops) {
						if err != nil {
							t.Errorf("batch: %v", err)
							return
						}
					}
					if len(mail) > 0 {
						if err := submit(mailOnly, mail); err != nil {
							t.Errorf("mailbox batch: %v", err)
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
	// race live defrag passes for the whole run.
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

	// Fragmentation must have been measured on the mailbox path too: by
	// the writer goroutine of the shard no write reached any other way.
	if frag, err := kv.ShardFragmentation(mailOnly); err != nil || frag < 0 {
		t.Fatalf("shard %d, written only through its mailbox, never measured fragmentation (%v, %v)", mailOnly, frag, err)
	}
}

var allSchemes = []string{SchemeFASTPlus, SchemeFAST, SchemeNVWAL, SchemeWAL, SchemeJournal}

// checkScheme fails unless every shard of kv runs scheme, as both its store
// and its exported gauge report it.
func checkScheme(t *testing.T, kv *KV, scheme, when string) {
	t.Helper()
	gauges := kv.eng.Gauges()
	for i := 0; i < kv.Shards(); i++ {
		st, err := kv.ShardStore(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.ToLower(st.Name()); got != scheme {
			t.Fatalf("%s: shard %d runs %q, want %q", when, i, got, scheme)
		}
		if gauges[i].Scheme != scheme {
			t.Fatalf("%s: shard %d gauge reports %q, want %q", when, i, gauges[i].Scheme, scheme)
		}
	}
}

// TestSchemeFixedForLife: a shard runs Options.Scheme for the life of the
// store. Neither a stream of single-leaf rounds nor one of wide multi-leaf
// batches, nor a power failure and recovery, changes any shard's scheme.
func TestSchemeFixedForLife(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			kv := defragKV(t, Options{Scheme: scheme})
			checkScheme(t, kv, scheme, "open")
			for i := 0; i < 200; i++ {
				if err := kv.Put(akey(i), aval(i)); err != nil {
					t.Fatal(err)
				}
			}
			checkScheme(t, kv, scheme, "single-leaf rounds")
			for b := 0; b < 4; b++ {
				ops := make([]Op, 0, 256)
				for i := 0; i < 256; i++ {
					id := 1000 + b*256 + i
					ops = append(ops, Op{Kind: OpInsert, Key: akey(id), Val: aval(id)})
				}
				mustApply(t, kv, ops)
			}
			checkScheme(t, kv, scheme, "wide batches")
			kv.Crash(CrashOptions{Seed: 3, EvictProb: 0.5})
			if err := kv.ReopenKV(); err != nil {
				t.Fatal(err)
			}
			checkScheme(t, kv, scheme, "recovery")
			if n, err := kv.Count(); err != nil || n != 200+4*256 {
				t.Fatalf("count = %d, %v; want %d", n, err, 200+4*256)
			}
		})
	}
}

// TestDefragSnapshotRoundTrip: on every scheme, a store whose leaves were
// proactively rewritten reopens from its own snapshot under the scheme the
// header records, with every live record and no deleted one.
func TestDefragSnapshotRoundTrip(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			kv := defragKV(t, Options{Scheme: scheme, DefragThreshold: 0.2})
			keys := fragmentAndDefrag(t, kv)
			path := filepath.Join(t.TempDir(), "kv.fasp")
			if err := kv.Save(path); err != nil {
				t.Fatal(err)
			}
			kv2, err := OpenSnapshotKV(path, Options{DefragThreshold: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(kv2.Close)
			checkScheme(t, kv2, scheme, "snapshot restore")
			checkDefragContents(t, kv2, keys)
		})
	}
}

// TestDefragCrashReopen: on every scheme, the leaves a defrag pass rewrote
// copy-on-write survive a power failure, and the recovered store keeps its
// scheme and accepts writes.
func TestDefragCrashReopen(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			kv := defragKV(t, Options{Scheme: scheme, DefragThreshold: 0.2})
			keys := fragmentAndDefrag(t, kv)
			kv.Crash(CrashOptions{Seed: 5, EvictProb: 0.5})
			if err := kv.ReopenKV(); err != nil {
				t.Fatal(err)
			}
			checkScheme(t, kv, scheme, "recovery")
			checkDefragContents(t, kv, keys)
			for i := 1; i < 600; i += 2 {
				if err := kv.Put(keys[i], aval(i+9000)); err != nil {
					t.Fatalf("put after recovery: %v", err)
				}
			}
			if err := kv.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
