package fasp

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"fasp/internal/fast"
	"fasp/internal/phase"
)

// On-demand defragmentation is the paper's only defragmentation (§4.3): a
// write that finds room on its leaf only in dead space makes the room there,
// by moving a few cells and committing the move in place (FAST+'s Relocate)
// or by copying the page on write (every scheme, and FAST+ when a move does
// not fit). These tests carve dead space into committed leaves, make writes
// land in it, and check that the leaves so rewritten survive a snapshot, a
// power failure and concurrent readers on every scheme.

// churnKey is the key of the n-th record a churn inserts, scattered so that
// inserts land in every leaf.
func churnKey(n int) []byte { return []byte(fmt.Sprintf("k%08x", uint32(n)*2654435761)) }

// defragModel is what fragmentAndDefrag left in the store: the value of
// every live record, and every key it deleted.
type defragModel struct {
	live    map[string][]byte
	deleted [][]byte
}

// defragNS returns the simulated time shard i has spent in on-demand
// defragmentation, moves and copies alike.
func defragNS(t *testing.T, kv *KV, i int) int64 {
	t.Helper()
	in, err := kv.ShardStats(i)
	if err != nil {
		t.Fatal(err)
	}
	return in.Phases[phase.Defrag]
}

// fragmentAndDefrag loads 600 records of 16 to 115 bytes in scattered key
// order, then runs a seeded churn of 1,500 single-op rounds, 35/30/35
// insert/resize/delete, the mix of the kv-write workload. Deletes and
// resizes leave holes of every width, so inserts and resizes find room only
// in dead space often enough; the function fails unless every shard
// defragmented on demand during the churn.
func fragmentAndDefrag(t *testing.T, kv *KV) *defragModel {
	t.Helper()
	const preload, churn = 600, 1500
	rng := rand.New(rand.NewSource(1))
	m := &defragModel{live: map[string][]byte{}}
	var keys []string
	next := 0
	val := func() []byte {
		v := make([]byte, 16+rng.Intn(100))
		for i := range v {
			v[i] = byte('a' + rng.Intn(26))
		}
		return v
	}
	put := func(k string) {
		v := val()
		if err := kv.Put([]byte(k), v); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
		m.live[k] = v
	}
	insert := func() {
		k := string(churnKey(next))
		next++
		put(k)
		keys = append(keys, k)
	}
	for next < preload {
		insert()
	}
	before := make([]int64, kv.Shards())
	for i := range before {
		before[i] = defragNS(t, kv, i)
	}
	for op := 0; op < churn; op++ {
		switch r := rng.Intn(100); {
		case r < 35:
			insert()
		case r < 65:
			put(keys[rng.Intn(len(keys))])
		default:
			at := rng.Intn(len(keys))
			k := keys[at]
			if err := kv.Delete([]byte(k)); err != nil {
				t.Fatalf("delete %q: %v", k, err)
			}
			delete(m.live, k)
			m.deleted = append(m.deleted, []byte(k))
			keys[at] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
	}
	for i := range before {
		if defragNS(t, kv, i) == before[i] {
			t.Fatalf("shard %d: no churn write defragmented its leaf", i)
		}
	}
	return m
}

// checkDefragContents fails unless kv holds exactly m's live records, each
// with its last value, and its trees validate.
func checkDefragContents(t *testing.T, kv *KV, m *defragModel) {
	t.Helper()
	if err := kv.Validate(); err != nil {
		t.Fatalf("validate after defrag: %v", err)
	}
	for k, want := range m.live {
		v, ok, err := kv.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("live key %q lost after defrag (ok=%v err=%v)", k, ok, err)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("live key %q reads %q after defrag, want %q", k, v, want)
		}
	}
	for _, k := range m.deleted {
		if _, ok, _ := kv.Get(k); ok {
			t.Fatalf("deleted key %q resurrected by defrag", k)
		}
	}
	if n, err := kv.Count(); err != nil || n != len(m.live) {
		t.Fatalf("count = %d, %v; want %d", n, err, len(m.live))
	}
}

// fastStats sums the FAST store counters of kv's shards; ok is false for a
// scheme that is not FAST or FAST+.
func fastStats(t *testing.T, kv *KV) (defrags, relocations int64, ok bool) {
	t.Helper()
	for i := 0; i < kv.Shards(); i++ {
		st, err := kv.ShardStore(i)
		if err != nil {
			t.Fatal(err)
		}
		fs, isFast := st.(*fast.Store)
		if !isFast {
			return 0, 0, false
		}
		s := fs.Stats()
		defrags += s.Defrags
		relocations += s.Relocations
	}
	return defrags, relocations, true
}

// TestOnDemandDefrag: on every scheme, inserts and resizes into fragmented
// leaves are served by on-demand defragmentation, through the mechanism the scheme
// has: FAST+ moves cells in place, FAST copies the page (it has no in-place
// install to commit a move with), and the write-ahead-logging baselines copy
// the page in their buffer cache. Live records keep their new values and no
// deleted one comes back.
func TestOnDemandDefrag(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			kv := smallKV(t, Options{Scheme: scheme})
			m := fragmentAndDefrag(t, kv)
			defrags, relocations, isFast := fastStats(t, kv)
			switch scheme {
			case SchemeFASTPlus:
				if relocations == 0 {
					t.Fatalf("FAST+ moved no cells in place (%d page copies)", defrags)
				}
			case SchemeFAST:
				if relocations != 0 || defrags == 0 {
					t.Fatalf("FAST: %d relocations, %d page copies; want only copies", relocations, defrags)
				}
			default:
				if isFast {
					t.Fatalf("%s runs a FAST store", scheme)
				}
			}
			checkDefragContents(t, kv, m)
		})
	}
}

// TestDefragSnapshotRoundTrip: on every scheme, a store whose leaves were
// defragmented on demand reopens from its own snapshot under the scheme the
// header records, with every live record and no deleted one.
func TestDefragSnapshotRoundTrip(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			kv := smallKV(t, Options{Scheme: scheme})
			m := fragmentAndDefrag(t, kv)
			path := filepath.Join(t.TempDir(), "kv.fasp")
			if err := kv.Save(path); err != nil {
				t.Fatal(err)
			}
			kv2, err := OpenSnapshotKV(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(kv2.Close)
			checkScheme(t, kv2, scheme, "snapshot restore")
			checkDefragContents(t, kv2, m)
		})
	}
}

// TestDefragCrashReopen: on every scheme, the leaves on-demand
// defragmentation rewrote survive a power failure, and the recovered store
// keeps its scheme and accepts writes.
func TestDefragCrashReopen(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			kv := smallKV(t, Options{Scheme: scheme})
			m := fragmentAndDefrag(t, kv)
			kv.Crash(CrashOptions{Seed: 5, EvictProb: 0.5})
			if err := kv.ReopenKV(); err != nil {
				t.Fatal(err)
			}
			checkScheme(t, kv, scheme, "recovery")
			checkDefragContents(t, kv, m)
			i := 0
			for k := range m.live {
				i++
				if err := kv.Put([]byte(k), aval(i)); err != nil {
					t.Fatalf("put after recovery: %v", err)
				}
			}
			if err := kv.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sizedVal is aval(i) with a tail of 0 to 36 bytes chosen by i, so a stream
// of upserts keeps resizing records and leaving holes of every width.
func sizedVal(i int) []byte {
	return append(aval(i), bytes.Repeat([]byte{'+'}, (i%4)*12)...)
}

// TestDefragConcurrentStress is the race-detector arm (CI runs the whole
// repo under -race): on every scheme, concurrent writers resize records so
// that leaves defragment on demand while optimistic readers walk the
// committed snapshots. Both write paths defragment: Put and ApplyBatch,
// which commit alone, and the queue path (SubmitShard), whose rounds a
// submitter serves. Shard 0 is written through its queue alone (every
// other shard takes both paths), so its defragmentation can only have run
// in a queued round.
func TestDefragConcurrentStress(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			defragStress(t, scheme)
		})
	}
}

func defragStress(t *testing.T, scheme string) {
	kv := smallKV(t, Options{Scheme: scheme, Shards: 4})
	const writers, readers, perW = 4, 4, 300
	const queueOnly = 0 // the shard written through its queue alone
	// submit sends ops, all routed to shard si, through si's queue.
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
				k, v := akey(id), sizedVal(id)
				var err error
				if si := kv.ShardOf(k); si == queueOnly || i%2 == 1 {
					err = submit(si, []Op{{Kind: OpPut, Key: k, Val: v}})
				} else {
					err = kv.Put(k, v)
				}
				if err != nil {
					t.Errorf("put %d: %v", id, err)
					return
				}
				if i%8 == 7 {
					// Resize keys inside this writer's own id range so the
					// final count is exact; the queue-only shard's share goes
					// through its queue as one submission.
					var ops, mail []Op
					for j := 0; j < 16; j++ {
						k := w*perW + (i-j+perW)%perW
						op := Op{Kind: OpPut, Key: akey(k), Val: sizedVal(id + j + 1)}
						if kv.ShardOf(op.Key) == queueOnly {
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
						if err := submit(queueOnly, mail); err != nil {
							t.Errorf("queued batch: %v", err)
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
				v, ok, err := kv.Get(akey((r*131 + i) % (writers * perW)))
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if ok && !bytes.HasPrefix(v, []byte("value-")) {
					t.Errorf("get read a torn value %q", v)
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
	// race live defragmentation for the whole run.
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
	if defragNS(t, kv, queueOnly) == 0 {
		t.Fatalf("shard %d, written only through its queue, never defragmented", queueOnly)
	}
}
