package fasp

import (
	"fmt"
	"strings"
	"testing"
)

// smallKV opens a small sharded store with the given options.
func smallKV(t *testing.T, opts Options) *KV {
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
			kv := smallKV(t, Options{Scheme: scheme})
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
