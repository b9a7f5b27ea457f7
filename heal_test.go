package fasp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"fasp/internal/shard"
)

// TestHealTable pins the KV.Heal contract across shard states: a healthy
// shard is a no-op returning nil (no recovery churn — a background healer
// may call it unconditionally), a degraded shard is recovered in place
// with its committed data intact, and a bad index is ErrBadShard.
func TestHealTable(t *testing.T) {
	var panicNext atomic.Int64 // shard index to panic on next commit, -1 = off
	panicNext.Store(-1)
	kv, err := OpenKV(Options{
		Shards:    4,
		PageSize:  1024,
		PMReadNS:  -1,
		PMWriteNS: -1,
		FaultHook: func(s int) {
			if int64(s) == panicNext.Swap(-1) {
				panic("heal_test: injected writer fault")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	// Seed one key per shard so every shard has committed state to keep.
	keyFor := func(s int) []byte {
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("key-%d", i))
			if kv.eng.ShardFor(k) == s {
				return k
			}
		}
	}
	for s := 0; s < 4; s++ {
		if err := kv.Put(keyFor(s), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("healthy is a no-op", func(t *testing.T) {
		before := make([]ShardInfo, 4)
		for s := 0; s < 4; s++ {
			in, err := kv.ShardStats(s)
			if err != nil {
				t.Fatal(err)
			}
			before[s] = in
		}
		for s := 0; s < 4; s++ {
			if err := kv.Heal(s); err != nil {
				t.Fatalf("Heal(%d) on healthy shard: %v", s, err)
			}
		}
		for s := 0; s < 4; s++ {
			after, err := kv.ShardStats(s)
			if err != nil {
				t.Fatal(err)
			}
			// Recovery replays the log and rebuilds the store, which moves
			// the PM event counters; a no-op moves nothing.
			if after.PM != before[s].PM || after.SimNS != before[s].SimNS {
				t.Fatalf("Heal(%d) on healthy shard did work: before=%+v after=%+v", s, before[s].PM, after.PM)
			}
		}
	})

	// The victim is written through its queue, so the injected fault fires
	// in a round a submitter serves.
	submit := func(k, v []byte) error {
		var errs [1]error
		kv.SubmitShard(kv.ShardOf(k), []Op{{Kind: OpPut, Key: k, Val: v}}, errs[:])
		return errs[0]
	}
	t.Run("degraded shard heals in place", func(t *testing.T) {
		const victim = 2
		vk := keyFor(victim)
		panicNext.Store(victim)
		if err := submit(vk, []byte("doomed")); !errors.Is(err, ErrShardDown) {
			t.Fatalf("write through injected fault: %v, want ErrShardDown", err)
		}
		in, _ := kv.ShardStats(victim)
		if in.Health != shard.Degraded {
			t.Fatalf("victim health = %v, want degraded", in.Health)
		}
		// Other shards keep serving while the victim is down.
		if err := kv.Put(keyFor(victim+1), []byte("alive")); err != nil {
			t.Fatalf("healthy shard during degrade: %v", err)
		}
		if err := kv.Heal(victim); err != nil {
			t.Fatalf("Heal(degraded): %v", err)
		}
		in, _ = kv.ShardStats(victim)
		if in.Health != shard.Healthy {
			t.Fatalf("post-heal health = %v, want healthy", in.Health)
		}
		// The faulted batch was never acknowledged, so the seed survives
		// and new writes land.
		if v, ok, err := kv.Get(vk); err != nil || !ok || string(v) != "seed" {
			t.Fatalf("post-heal read: %q %v %v, want seed", v, ok, err)
		}
		if err := submit(vk, []byte("recovered")); err != nil {
			t.Fatalf("post-heal write: %v", err)
		}
	})

	t.Run("bad index", func(t *testing.T) {
		for _, i := range []int{-1, 4, 99} {
			if err := kv.Heal(i); !errors.Is(err, ErrBadShard) {
				t.Fatalf("Heal(%d) = %v, want ErrBadShard", i, err)
			}
		}
	})
}

// TestHealSingleStore pins Heal(0) on a one-shard store: nil no-op while
// healthy, equivalent to ReopenKV after Crash.
func TestHealSingleStore(t *testing.T) {
	kv, err := OpenKV(Options{PageSize: 1024, PMReadNS: -1, PMWriteNS: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Heal(0); err != nil {
		t.Fatalf("Heal(0) healthy: %v", err)
	}
	if in, _ := kv.ShardStats(0); in.Health != shard.Healthy {
		t.Fatalf("healthy store reports %v", in.Health)
	}
	kv.Crash(CrashOptions{})
	if in, _ := kv.ShardStats(0); in.Health != shard.Crashed {
		t.Fatalf("crashed store reports %v", in.Health)
	}
	if err := kv.Heal(0); err != nil {
		t.Fatalf("Heal(0) after crash: %v", err)
	}
	if v, ok, err := kv.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("post-heal read: %q %v %v", v, ok, err)
	}
	if in, _ := kv.ShardStats(0); in.Health != shard.Healthy {
		t.Fatalf("healed store reports %v", in.Health)
	}
}
