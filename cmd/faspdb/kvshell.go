package main

// KV shell mode (-kv): an interactive ordered key/value store instead of
// the SQL engine, with optional sharding (-shards). Commands operate on the
// facade's KV API, so the shell drives the same code paths applications
// use — including the shard engine's queues and group commit.

import (
	"fmt"

	"fasp"
	"fasp/internal/obsv"
)

func runKVShell(kv *fasp.KV, lat, wlat int64) {
	defer kv.Close()
	fmt.Printf("faspdb — %s KV (%d shard(s), group commit ≤%d) on emulated PM (%d/%d ns). Type help for commands.\n",
		kv.SchemeName(), kv.Shards(), kv.MaxBatch(), lat, wlat)

	sh := &shell{
		prompt: "kv> ",
		st:     kv,
		help: `  .shards              per-shard statistics
  .clock               simulated time and phase totals
  .stats               PM event counters + op latency percentiles
  .trace               sampled commit-path transaction traces
  .crash               power-fail every shard and recover
  .save <file>         crash-consistent snapshot (reload: faspdb -kv -open <file>)`,
		extra: func(fields []string) bool { return kvCommand(kv, fields) },
		simNS: kv.SimulatedNS,
	}
	sh.run()
}

// kvCommand runs one of the -kv shell's own commands; it returns false for
// a command that is not one of them.
func kvCommand(kv *fasp.KV, fields []string) bool {
	switch fields[0] {
	case ".shards":
		for i := 0; i < kv.Shards(); i++ {
			in, err := kv.ShardStats(i)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				break
			}
			fmt.Printf("shard %d: sim %s us, %d ops, %d batches (largest %d)%s\n",
				i, obsv.Usec(in.SimNS), in.Ops, in.Batches, in.MaxDrained, healthSuffix(in))
		}
		st := kv.EngineStats()
		fmt.Printf("elapsed (slowest shard): %s us; total simulated work: %s us\n",
			obsv.Usec(st.SimMaxNS), obsv.Usec(st.SimSumNS))
	case ".clock":
		fmt.Printf("simulated time: %s us\n", obsv.Usec(kv.SimulatedNS()))
		for _, s := range obsv.SortedPhases(kv.Phases()) {
			fmt.Println("  " + s)
		}
	case ".stats":
		s := kv.PMStats()
		fmt.Printf("PM line fills:   %d\n", s.LineFills)
		fmt.Printf("PM cache hits:   %d\n", s.CacheHits)
		fmt.Printf("word stores:     %d (%d bytes)\n", s.WordStores, s.BytesStored)
		fmt.Printf("clflush calls:   %d (%d line write-backs)\n", s.FlushCalls, s.LineWritebacks)
		m := kv.Metrics()
		if len(m.Ops) > 0 {
			fmt.Println("op latencies (wall / simulated, p50 p95 p99 ns):")
			for _, o := range m.Ops {
				fmt.Printf("  %-7s %6d ops  wall %d %d %d  sim %d %d %d\n",
					o.Op, o.Count, o.WallP50NS, o.WallP95NS, o.WallP99NS,
					o.SimP50NS, o.SimP95NS, o.SimP99NS)
			}
			fmt.Printf("commit events: clflush=%d fence=%d htm=%d/%d log=%d ckpt=%d; %d batches, %d slow ops\n",
				m.Events.Flush, m.Events.Fence, m.Events.HTMCommit, m.Events.HTMAbort,
				m.Events.LogAppend, m.Events.Checkpoint, m.Batches, m.SlowOps)
			if m.BatchSize.Count > 0 {
				fmt.Printf("batch size: p50=%d p99=%d mean=%.1f; queue depth p99=%d\n",
					m.BatchSize.Quantile(0.50), m.BatchSize.Quantile(0.99),
					m.BatchSize.Mean(), m.MailDepth.Quantile(0.99))
			}
		}
	case ".trace":
		samples := kv.TraceSample()
		if len(samples) == 0 {
			fmt.Println("(no samples yet — every Nth transaction and every slow op is sampled)")
			break
		}
		for _, s := range samples {
			fmt.Printf("seq=%d shard=%d %s ops=%d sim=%dns wall=%dns clflush=%d fence=%d%s\n",
				s.Seq, s.Shard, s.Op, s.Ops, s.SimNS, s.WallNS,
				s.Events.Flush, s.Events.Fence, slowSuffix(s.Slow))
		}
	case ".crash":
		kv.Crash(fasp.CrashOptions{Seed: kv.SimulatedNS(), EvictProb: 0.5})
		if err := kv.ReopenKV(); err != nil {
			fmt.Printf("recovery failed: %v\n", err)
		} else {
			fmt.Printf("crashed and recovered %d shard(s)\n", kv.Shards())
		}
	case ".save":
		if len(fields) != 2 {
			fmt.Println("usage: .save <file>")
			break
		}
		if err := kv.Save(fields[1]); err != nil {
			fmt.Printf("save failed: %v\n", err)
		} else {
			fmt.Printf("saved to %s\n", fields[1])
		}
	default:
		return false
	}
	return true
}

// healthSuffix annotates a shard line when it is not serving.
func healthSuffix(in fasp.ShardInfo) string {
	if in.Health == 0 {
		return ""
	}
	return fmt.Sprintf(" [%s]", in.Health)
}

// slowSuffix marks slow-op samples in .trace output.
func slowSuffix(slow bool) string {
	if slow {
		return " SLOW"
	}
	return ""
}
