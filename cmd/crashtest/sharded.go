package main

// Sharded crash rounds (-shards N): the same randomised power-failure
// check, driven through the public facade against the sharded engine.
// Each round arms one shard's crash injector so the failure fires *inside*
// a group commit drained from concurrent clients, then applies an
// adversarial eviction lottery to every shard, recovers all of them, and
// verifies:
//
//   - every acknowledged operation survives on every shard;
//   - the un-acknowledged tail is bounded by the ops the engine reported
//     as ErrCrashed (a group commit may reach its commit mark and then
//     crash before the reply, so durable-but-unacknowledged is legal —
//     lost-acknowledged is not);
//   - every shard's tree is structurally valid.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"fasp"
	"fasp/internal/pmem"
)

// measureSharded learns the smallest per-shard crash-point budget from one
// uncrashed run, so random crash points usually land inside the workload.
// The queued path (KV.Submit) batches nondeterministically, so budgets
// vary slightly between rounds; a crash point past the end simply yields a
// no-crash round, which is still verified.
func measureSharded(scheme string, shards, clients, txns int) int64 {
	kv, err := fasp.OpenKV(fasp.Options{Scheme: scheme, PageSize: 256, Shards: shards})
	if err != nil {
		fail("open: %v", err)
	}
	defer kv.Close()
	runClients(kv, clients, txns, nil)
	min := int64(-1)
	for i := 0; i < shards; i++ {
		sys, err := kv.ShardSystem(i)
		if err != nil {
			fail("shard %d: %v", i, err)
		}
		if pts := sys.CrashPoints(); min < 0 || pts < min {
			min = pts
		}
	}
	return min
}

// ack records the outcome of every submitted op.
type ack struct {
	mu      sync.Mutex
	ok      map[int]bool
	crashed int
	hard    error
}

// runClients drives `clients` goroutines issuing txns puts each through
// the shard queues (KV.Submit), so the shard rounds gather the clients into
// group commits, recording outcomes in a (nil-able) ack.
func runClients(kv *fasp.KV, clients, txns int, a *ack) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sp fasp.Submission
			var errs [1]error
			for i := 0; i < txns; i++ {
				id := c*txns + i
				kv.Submit(&sp, []fasp.Op{{Kind: fasp.OpPut, Key: key(id), Val: val(id)}}, errs[:], nil)
				err := errs[0]
				if a == nil {
					if err != nil {
						fail("uncrashed put %d: %v", id, err)
					}
					continue
				}
				a.mu.Lock()
				switch {
				case err == nil:
					a.ok[id] = true
				case errors.Is(err, fasp.ErrShardCrashed):
					a.crashed++
				default:
					if a.hard == nil {
						a.hard = fmt.Errorf("op %d: %w", id, err)
					}
				}
				a.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

// oneShardedRound arms the victim shard's injector at kpt, runs concurrent
// clients, crashes the whole store, recovers, and verifies.
func oneShardedRound(scheme string, shards, clients, txns int, victim int, kpt int64, opts pmem.CrashOptions) error {
	kv, err := fasp.OpenKV(fasp.Options{Scheme: scheme, PageSize: 256, Shards: shards})
	if err != nil {
		return err
	}
	defer kv.Close()
	vsys, err := kv.ShardSystem(victim)
	if err != nil {
		return err
	}
	vsys.CrashAfter(kpt)

	a := &ack{ok: map[int]bool{}}
	runClients(kv, clients, txns, a)
	if a.hard != nil {
		return dumpTrace(kv, a.hard)
	}

	// Power failure across the whole store (per-shard eviction lottery),
	// then recovery of every shard.
	kv.Crash(opts)
	if err := kv.ReopenKV(); err != nil {
		return dumpTrace(kv, fmt.Errorf("recover: %w", err))
	}
	if err := kv.Validate(); err != nil {
		return dumpTrace(kv, fmt.Errorf("tree invalid: %w", err))
	}
	for id := range a.ok {
		got, ok, err := kv.Get(key(id))
		if err != nil || !ok {
			return dumpTrace(kv, fmt.Errorf("acknowledged key %d missing (err=%v)", id, err))
		}
		if !bytes.Equal(got, val(id)) {
			return dumpTrace(kv, fmt.Errorf("acknowledged key %d corrupt", id))
		}
	}
	count, err := kv.Count()
	if err != nil {
		return err
	}
	if count < len(a.ok) || count > len(a.ok)+a.crashed {
		return dumpTrace(kv, fmt.Errorf("recovered %d keys, acknowledged %d, crashed-unacknowledged %d",
			count, len(a.ok), a.crashed))
	}
	return nil
}

// dumpTrace prints the store's sampled commit-path traces on a violation,
// so a failing round carries its own per-transaction event evidence
// (batch sizes, clflush/fence counts, simulated latencies) alongside the
// repro spec. The error passes through unchanged.
func dumpTrace(kv *fasp.KV, cause error) error {
	samples := kv.TraceSample()
	if len(samples) == 0 {
		return cause
	}
	// The most recent samples are the ones that surround the crash.
	const show = 16
	if len(samples) > show {
		samples = samples[len(samples)-show:]
	}
	fmt.Printf("  trace sample (%d most recent transactions):\n", len(samples))
	for _, s := range samples {
		fmt.Printf("    seq=%d shard=%d %s ops=%d sim=%dns wall=%dns clflush=%d fence=%d htm=%d/%d log=%d ckpt=%d\n",
			s.Seq, s.Shard, s.Op, s.Ops, s.SimNS, s.WallNS,
			s.Events.Flush, s.Events.Fence, s.Events.HTMCommit, s.Events.HTMAbort,
			s.Events.LogAppend, s.Events.Checkpoint)
	}
	return cause
}
