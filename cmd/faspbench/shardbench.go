package main

// Sharded wall-clock benchmark (-shards/-clients with -benchjson): measures
// the sharded KV engine end-to-end through the public facade — concurrent
// client goroutines issuing Put through each shard's mailbox, group commit
// amortising the commit protocol per shard.
//
// Two throughput views are reported. Wall-clock ops/s measures how fast the
// emulation runs on the host, which on a single-CPU machine cannot benefit
// from shard parallelism (the per-op cost is dominated by the emulator's
// bookkeeping, and N shards still execute on one core). Simulated ops/s
// divides the op count by the *slowest shard's* simulated time — the
// elapsed time of the simulated machine cluster, where shards genuinely
// run in parallel — and is the machine-independent number the sharding
// design targets. The report records the host CPU count so readers can
// interpret the wall-clock column.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fasp"
	"fasp/internal/obsv"
	"fasp/internal/workload"
)

// ShardBenchResult is one (shards, clients) insert run.
type ShardBenchResult struct {
	Shards   int `json:"shards"`
	Clients  int `json:"clients"`
	MaxBatch int `json:"max_batch"`
	N        int `json:"n"`
	// Wall-clock view (host-dependent).
	InsertNsOp    float64 `json:"insert_ns_op"`
	WallOpsPerSec float64 `json:"wall_ops_per_sec"`
	// Simulated view (machine-independent): elapsed = slowest shard.
	SimElapsedNS int64   `json:"sim_elapsed_ns"`
	SimSumNS     int64   `json:"sim_sum_ns"`
	SimOpsPerSec float64 `json:"sim_ops_per_sec"`
	// Group-commit effectiveness.
	Batches    int64   `json:"batches"`
	AvgBatch   float64 `json:"avg_batch"`
	MaxDrained int     `json:"max_drained"`
	// ShardOps shows routing balance (ops applied per shard).
	ShardOps []int64 `json:"shard_ops,omitempty"`
	// Put holds the client-perceived latency distribution (wall includes
	// mailbox queueing; sim is the per-op share of the group commit).
	Put LatencyQuantiles `json:"put_latency"`
	// Batch-size distribution quantiles (group-commit effectiveness).
	BatchP50 int64 `json:"batch_p50,omitempty"`
	BatchP99 int64 `json:"batch_p99,omitempty"`
	// Speedups vs the shards=1 row of the same series.
	WallSpeedup float64 `json:"wall_speedup,omitempty"`
	SimSpeedup  float64 `json:"sim_speedup,omitempty"`
}

// runBenchSharded inserts n pre-generated records through `clients`
// concurrent goroutines into a store with the given shard count. When
// exporter is non-empty the run serves /metrics on that address while the
// store is live; with scrape it also self-scrapes once and validates the
// Prometheus text (the CI smoke path).
func runBenchSharded(n, pageSize int, seed int64, shards, clients, maxBatch int, exporter string, scrape bool) (ShardBenchResult, error) {
	res := ShardBenchResult{Shards: shards, Clients: clients, MaxBatch: maxBatch}
	kv, err := fasp.OpenKV(fasp.Options{
		Scheme: "fast+", PageSize: pageSize, Shards: shards, MaxBatch: maxBatch,
	})
	if err != nil {
		return res, err
	}
	defer kv.Close()
	res.MaxBatch = kv.MaxBatch()

	gen := workload.New(workload.Config{Seed: seed, RecordSize: 64})
	per := n / clients
	n = per * clients // exact split keeps client loops identical
	res.N = n
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = gen.NextKey()
		vals[i] = gen.NextValue()
	}

	var firstErr atomic.Value
	var wg sync.WaitGroup
	runtime.GC()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * per; i < (c+1)*per; i++ {
				if err := kv.Put(keys[i], vals[i]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	if err, _ := firstErr.Load().(error); err != nil {
		return res, err
	}

	st := kv.EngineStats()
	res.InsertNsOp = float64(wall.Nanoseconds()) / float64(n)
	res.WallOpsPerSec = float64(n) / wall.Seconds()
	res.SimElapsedNS = st.SimMaxNS
	res.SimSumNS = st.SimSumNS
	if st.SimMaxNS > 0 {
		res.SimOpsPerSec = float64(n) / (float64(st.SimMaxNS) / 1e9)
	}
	res.Batches = st.Batches
	if st.Batches > 0 {
		res.AvgBatch = float64(st.Ops) / float64(st.Batches)
	}
	res.MaxDrained = st.MaxDrained
	for i := 0; i < kv.Shards(); i++ {
		in, err := kv.ShardStats(i)
		if err != nil {
			return res, err
		}
		res.ShardOps = append(res.ShardOps, in.Ops)
	}
	m := kv.Metrics()
	if o := m.OpStats(obsv.OpPut); o.Count > 0 {
		res.Put = LatencyQuantiles{
			WallP50NS: o.WallP50NS, WallP95NS: o.WallP95NS, WallP99NS: o.WallP99NS,
			SimP50NS: o.SimP50NS, SimP95NS: o.SimP95NS, SimP99NS: o.SimP99NS,
		}
	}
	if m.BatchSize.Count > 0 {
		res.BatchP50 = m.BatchSize.Quantile(0.50)
		res.BatchP99 = m.BatchSize.Quantile(0.99)
	}
	if exporter != "" {
		if err := serveAndScrape(kv, exporter, scrape); err != nil {
			return res, err
		}
	}
	return res, nil
}

// serveAndScrape starts the metrics exporter while kv is still open and
// registered, optionally fetches /metrics once, and validates that the
// response parses as Prometheus text exposition and carries the per-shard
// series the sharded engine is expected to export.
func serveAndScrape(kv *fasp.KV, addr string, scrape bool) error {
	srv, err := fasp.ServeMetrics(addr)
	if err != nil {
		return fmt.Errorf("metrics exporter: %w", err)
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "metrics exporter listening on http://%s/metrics\n", srv.Addr())
	if !scrape {
		return nil
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	if err := obsv.ValidatePrometheus(body); err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	for _, want := range []string{"fasp_shard_ops_total", "fasp_batch_size_bucket", "fasp_ops_total"} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("scrape: series %q missing from /metrics", want)
		}
	}
	fmt.Fprintf(os.Stderr, "scrape ok: %d bytes of valid Prometheus text\n", len(body))
	return nil
}

// runShardSeries benchmarks shards=1 as the baseline and then the requested
// shard count, annotating speedups. The exporter (and self-scrape) attaches
// to the run with the requested shard count, falling back to the baseline
// when shards == 1, so the scraped page always shows the interesting store.
func runShardSeries(n, pageSize int, seed int64, shards, clients, maxBatch int, exporter string, scrape bool) ([]ShardBenchResult, error) {
	var out []ShardBenchResult
	baseExporter := ""
	if shards <= 1 {
		baseExporter = exporter
	}
	base, err := runBenchSharded(n, pageSize, seed, 1, clients, maxBatch, baseExporter, scrape && shards <= 1)
	if err != nil {
		return nil, err
	}
	report := func(r ShardBenchResult) {
		fmt.Fprintf(os.Stderr,
			"shards=%-2d clients=%-2d insert %8.0f ns/op  wall %9.0f ops/s  sim %9.0f ops/s  avg batch %.1f  put p99 %dns\n",
			r.Shards, r.Clients, r.InsertNsOp, r.WallOpsPerSec, r.SimOpsPerSec, r.AvgBatch, r.Put.WallP99NS)
	}
	report(base)
	out = append(out, base)
	if shards > 1 {
		r, err := runBenchSharded(n, pageSize, seed, shards, clients, maxBatch, exporter, scrape)
		if err != nil {
			return nil, err
		}
		if base.WallOpsPerSec > 0 {
			r.WallSpeedup = r.WallOpsPerSec / base.WallOpsPerSec
		}
		if base.SimOpsPerSec > 0 {
			r.SimSpeedup = r.SimOpsPerSec / base.SimOpsPerSec
		}
		report(r)
		fmt.Fprintf(os.Stderr, "speedup vs shards=1: wall %.2fx, simulated %.2fx (host has %d CPU(s))\n",
			r.WallSpeedup, r.SimSpeedup, runtime.NumCPU())
		out = append(out, r)
	}
	return out, nil
}
