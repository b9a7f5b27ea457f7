package main

// Network server benchmark mode (-serverbench): starts an in-process
// faspserver over a sharded KV and drives it with the many-client load
// generator. Three arms:
//
//   conns=1      — the single-connection baseline (no cross-connection
//                  coalescing possible);
//   conns=N      — the many-client arm (default 256): every connection
//                  enqueues its per-shard slices straight on the shard
//                  writers, which gather them into group commits while the
//                  next round queues on the mailbox;
//   overload     — a deliberately tiny in-flight gate flooded by the same
//                  client count, asserting the shedding contract: typed
//                  BUSY responses, zero dropped connections.
//
// The acceptance targets (mean commit width > 1 and simulated throughput
// ≥ 4× the 1-connection arm at the many-client point; overload sheds with
// BUSY, not disconnects) are recorded in the report; -sb-strict makes a
// missed target a non-zero exit. BENCH_PR10.json is the frozen record of
// the A/B against the since-removed global batcher.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"fasp"
	"fasp/internal/obsv"
	"fasp/internal/server"
	"fasp/internal/server/loadgen"
)

// ServerArm is one load-generation arm with its engine-side coalescing
// evidence: MeanCommitWidth is Δops/Δbatches over the arm — the average
// number of operations per committed failure-atomic transaction, i.e. the
// per-shard group-commit width.
//
// Two throughput views, following the shardbench convention: wall-clock
// ops/s measures how fast the emulation runs on the host (on a
// single-CPU host every in-process arm is CPU-bound, so client
// concurrency cannot show up in it), while simulated ops/s is
// machine-independent: engine ops over the simulated time the emulated
// PM cluster needs to serve the arm.
//
// The simulated elapsed time must respect the arm's offered concurrency.
// Shardbench sidesteps this (its baseline is shards=1, where the busiest
// shard IS the whole machine), but here both arms run the same shard
// count, and a single synchronous connection cannot keep eight shard
// clocks busy at once: each of its commits runs on one shard while the
// other seven sit idle waiting for the client's next request. So each
// arm's elapsed is the larger of the two classic makespan lower bounds:
//
//	elapsed = max(ΔSimMaxNS, ΔSimSumNS / min(concurrency, shards))
//
// — the busiest-shard critical path, or total simulated work divided by
// the number of shards the arm's in-flight ops (conns × pipeline ×
// batch) can actually occupy. At 256 connections this reduces to the
// busiest shard (the work bound is slack); at one synchronous connection
// it reduces to ΔSimSumNS, the serial chain of that client's commits.
// Cross-connection group commit then shows up in the ratio twice, as it
// would on real hardware: many clients keep every shard busy, and the
// per-commit protocol cost is amortised across the coalesced batch.
type ServerArm struct {
	Name string `json:"name"`
	loadgen.Result
	Pipeline        int     `json:"pipeline"`
	EngineOps       int64   `json:"engine_ops"`
	EngineBatches   int64   `json:"engine_batches"`
	MeanCommitWidth float64 `json:"mean_commit_width"`
	// CoalesceMean / ShardCoalesceMean are the server-side submit widths:
	// write-ops per connection flush, and per per-shard slice of a flush.
	CoalesceMean      float64 `json:"server_submit_width_mean"`
	ShardCoalesceMean float64 `json:"shard_coalesce_mean,omitempty"`
	SimMaxNS          int64   `json:"sim_max_ns"`
	SimSumNS          int64   `json:"sim_sum_ns"`
	SimElapsedNS      int64   `json:"sim_elapsed_ns"`
	SimOpsPerSec      float64 `json:"sim_ops_per_sec"`
}

// ServerBenchReport is the JSON document emitted by -serverbench.
type ServerBenchReport struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`
	Shards    int    `json:"shards"`
	ValueSize int    `json:"value_size"`
	Pipeline  int    `json:"pipeline"`
	BatchSize int    `json:"batch_size"`

	Arms     []ServerArm `json:"arms"`
	Overload ServerArm   `json:"overload"`

	// SpeedupVs1Conn is the machine-independent (simulated) throughput
	// ratio of the many-client arm over the 1-connection arm; WallSpeedup
	// is the host wall-clock ratio for reference (≈1 on a 1-CPU host).
	SpeedupVs1Conn float64  `json:"throughput_speedup_vs_1conn"`
	WallSpeedup    float64  `json:"wall_speedup_vs_1conn"`
	TargetSpeedup  float64  `json:"target_speedup"`
	TargetsMet     bool     `json:"targets_met"`
	Notes          []string `json:"notes,omitempty"`
}

// serverBenchConfig carries the -sb-* flags.
type serverBenchConfig struct {
	out         string
	conns       int
	dur         time.Duration
	valueSize   int
	batchSize   int
	pipeline    int
	overInflit  int
	shards      int
	scheme      string
	pageSize    int
	maxBatch    int
	seed        int64
	metricsAddr string
	scrape      bool
	strict      bool
}

// runServerArm opens a fresh KV+server, runs one loadgen arm against it,
// and reports throughput plus the engine's commit-width delta.
func runServerArm(name string, sc serverBenchConfig, conns, pipeline, maxInFlight int, scrapeNow bool) (ServerArm, error) {
	arm := ServerArm{Name: name, Pipeline: pipeline}
	kv, err := fasp.OpenKV(fasp.Options{Shards: sc.shards, Scheme: sc.scheme, MaxBatch: sc.maxBatch, PageSize: sc.pageSize})
	if err != nil {
		return arm, err
	}
	defer kv.Close()
	srv := server.New(kv, server.Config{MaxInFlight: maxInFlight})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return arm, err
	}
	go srv.Serve()
	defer srv.Shutdown()

	st0 := kv.EngineStats()
	res, err := loadgen.Run(loadgen.Config{
		Addr:      addr,
		Conns:     conns,
		Duration:  sc.dur,
		Pipeline:  pipeline,
		ValueSize: sc.valueSize,
		BatchSize: sc.batchSize,
		Seed:      sc.seed,
	})
	if err != nil {
		return arm, err
	}
	st1 := kv.EngineStats()
	arm.Result = res
	arm.EngineOps = st1.Ops - st0.Ops
	arm.EngineBatches = st1.Batches - st0.Batches
	if arm.EngineBatches > 0 {
		arm.MeanCommitWidth = float64(arm.EngineOps) / float64(arm.EngineBatches)
	}
	snap := srv.Snapshot()
	arm.CoalesceMean = snap.Coalesce.Mean()
	arm.ShardCoalesceMean = snap.ShardCoalesce.Mean()
	arm.SimMaxNS = st1.SimMaxNS - st0.SimMaxNS
	arm.SimSumNS = st1.SimSumNS - st0.SimSumNS
	// Makespan lower bound at the arm's offered concurrency (see the
	// ServerArm doc comment): busiest shard, or total work spread over the
	// shards the arm's in-flight ops can occupy, whichever binds.
	occupancy := conns * pipeline * sc.batchSize
	if occupancy > sc.shards {
		occupancy = sc.shards
	}
	if occupancy < 1 {
		occupancy = 1
	}
	arm.SimElapsedNS = arm.SimMaxNS
	if work := arm.SimSumNS / int64(occupancy); work > arm.SimElapsedNS {
		arm.SimElapsedNS = work
	}
	if arm.SimElapsedNS > 0 {
		arm.SimOpsPerSec = float64(arm.EngineOps) / (float64(arm.SimElapsedNS) / 1e9)
	}

	if scrapeNow && sc.metricsAddr != "" {
		if err := scrapeServerMetrics(sc.metricsAddr, sc.scrape); err != nil {
			return arm, err
		}
	}
	return arm, nil
}

// scrapeServerMetrics serves /metrics while the server source is still
// registered and (with scrape) validates the exposition carries the
// fasp_server_* series.
func scrapeServerMetrics(addr string, scrape bool) error {
	ms, err := fasp.ServeMetrics(addr)
	if err != nil {
		return fmt.Errorf("metrics exporter: %w", err)
	}
	defer ms.Close()
	fmt.Fprintf(os.Stderr, "metrics exporter listening on http://%s/metrics\n", ms.Addr())
	if !scrape {
		return nil
	}
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
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
	for _, want := range []string{
		"fasp_server_requests_total", "fasp_server_connections_total",
		"fasp_server_coalesce_width_bucket", "fasp_server_inflight_limit",
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("scrape: series %q missing from /metrics", want)
		}
	}
	fmt.Fprintf(os.Stderr, "scrape ok: %d bytes of valid Prometheus text\n", len(body))
	return nil
}

// runServerBench runs all three arms and writes the report.
func runServerBench(sc serverBenchConfig) error {
	rep := ServerBenchReport{
		Generated:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		CPUs:          runtime.NumCPU(),
		Shards:        sc.shards,
		ValueSize:     sc.valueSize,
		Pipeline:      sc.pipeline,
		BatchSize:     sc.batchSize,
		TargetSpeedup: 4,
	}

	report := func(a ServerArm) {
		fmt.Fprintf(os.Stderr,
			"%-10s conns=%-4d acked=%-8d wall %9.0f ops/s  sim %10.0f ops/s  commit-width=%.1f  busy=%-6d drops=%d  p99=%s\n",
			a.Name, a.Conns, a.OpsAcked, a.ThroughputOps, a.SimOpsPerSec, a.MeanCommitWidth,
			a.Busy, a.ConnDrops, time.Duration(a.LatP99NS))
	}

	// The baseline is the canonical single client: one connection, one
	// request outstanding (pipeline 1), so every commit is the full
	// serial round trip a lone caller experiences.
	base, err := runServerArm("conns1", sc, 1, 1, 0, false)
	if err != nil {
		return fmt.Errorf("conns1 arm: %w", err)
	}
	report(base)
	rep.Arms = append(rep.Arms, base)

	many, err := runServerArm(fmt.Sprintf("conns%d", sc.conns), sc, sc.conns, sc.pipeline, 0, true)
	if err != nil {
		return fmt.Errorf("many-client arm: %w", err)
	}
	report(many)
	rep.Arms = append(rep.Arms, many)

	over, err := runServerArm("overload", sc, sc.conns, sc.pipeline, sc.overInflit, false)
	if err != nil {
		return fmt.Errorf("overload arm: %w", err)
	}
	report(over)
	rep.Overload = over

	if base.SimOpsPerSec > 0 {
		rep.SpeedupVs1Conn = many.SimOpsPerSec / base.SimOpsPerSec
	}
	if base.ThroughputOps > 0 {
		rep.WallSpeedup = many.ThroughputOps / base.ThroughputOps
	}
	rep.TargetsMet = true
	miss := func(format string, a ...any) {
		rep.TargetsMet = false
		rep.Notes = append(rep.Notes, fmt.Sprintf(format, a...))
	}
	if rep.SpeedupVs1Conn < rep.TargetSpeedup {
		miss("speedup %.2fx < target %.0fx", rep.SpeedupVs1Conn, rep.TargetSpeedup)
	}
	if many.MeanCommitWidth <= 1 {
		miss("per-shard mean commit width %.2f at conns=%d not > 1", many.MeanCommitWidth, many.Conns)
	}
	if over.Busy == 0 {
		miss("overload arm saw no BUSY sheds")
	}
	if over.ConnDrops != 0 {
		miss("overload arm dropped %d connections", over.ConnDrops)
	}
	if over.Errors != 0 {
		miss("overload arm saw %d untyped errors", over.Errors)
	}
	fmt.Fprintf(os.Stderr, "speedup vs 1 conn: %.2fx (target %.0fx); per-shard commit width %.1f; targets met: %v %v\n",
		rep.SpeedupVs1Conn, rep.TargetSpeedup, many.MeanCommitWidth, rep.TargetsMet, rep.Notes)

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if sc.out == "-" {
		_, err = os.Stdout.Write(out)
	} else {
		err = os.WriteFile(sc.out, out, 0o644)
	}
	if err != nil {
		return err
	}
	if sc.strict && !rep.TargetsMet {
		return fmt.Errorf("targets missed: %s", strings.Join(rep.Notes, "; "))
	}
	return nil
}
