GO ?= go
N  ?= 20000

.PHONY: all build vet test race goldens results crashx obsv bench bench-pairs bench-json readbench phasebench serverbench chaos clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Regenerate the three determinism goldens (testdata/golden.json,
# golden_shards.json, golden_adaptive.json). Only a change that means to
# alter the simulated machine runs this, and it lists the per-scheme deltas
# (see DESIGN.md §6).
goldens:
	$(GO) test -run 'TestGoldenDeterminism$$' -update-golden .
	$(GO) test -run 'TestGoldenShardedDeterminism$$' -update-golden .
	$(GO) test -run 'TestGoldenAdaptiveDeterminism$$' -update-golden .

# Regenerate the checked-in figure tables. The output is a function of the
# code alone (simulated time, seeded workloads); CI diffs it against the file.
results:
	$(GO) run ./cmd/faspbench -all -ablations -recovery -n 20000 > results_n20000.txt

# Exhaustive crash-schedule exploration with nested recovery crashes, the
# CI smoke configuration; run with BUDGET=0 for full enumeration.
BUDGET ?= 60
crashx:
	$(GO) run ./cmd/crashtest -exhaustive -nested -budget $(BUDGET) -samples 30 -nested-budget 12 -nested-samples 6 -scheme fast+ -txns 12
	$(GO) run ./cmd/crashtest -exhaustive -nested -budget $(BUDGET) -samples 30 -nested-budget 12 -nested-samples 6 -scheme fast -txns 12

# Observability smoke: vet, the obsv + facade metrics tests, then a
# sharded bench run that serves /metrics, self-scrapes once and validates
# the Prometheus text exposition.
obsv:
	$(GO) vet ./...
	$(GO) test ./internal/obsv/ .
	$(GO) run ./cmd/faspbench -benchjson - -n 2000 -shards 4 -clients 4 -metrics-addr 127.0.0.1:0 -scrape > /dev/null

# Go-benchmark view (wall clock + simulated metrics + allocs).
bench:
	$(GO) test -bench 'BenchmarkInsert|BenchmarkGet' -benchmem -run '^$$' .

# The gated benchmark, parent against working tree: PAIRS alternating runs
# of WORKLOAD on each side, then bench/run.sh --compare (see
# scripts/bench-pairs.sh). Quiet machine only.
BASE     ?= HEAD
WORKLOAD ?= kv-write
PAIRS    ?= 3
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) $(WORKLOAD) $(PAIRS)

# Machine-readable wall-clock trajectory: ns/op and allocs/op for insert and
# search across all five schemes, plus the sharded-engine series (wall-clock
# and simulated-parallel throughput for shards=1 vs SHARDS). Set BASELINE to
# a previous report to embed per-scheme speedup ratios.
SHARDS  ?= 8
CLIENTS ?= 8
bench-json:
	$(GO) run ./cmd/faspbench -benchjson BENCH_PR2.json $(if $(BASELINE),-baseline $(BASELINE)) -n $(N) -shards $(SHARDS) -clients $(CLIENTS)

# Read-scaling series: mixed read/write workload swept over reader counts
# and read fractions, optimistic vs locked arms, plus the single-reader
# latency-parity check (see DESIGN.md §10).
READERS  ?= 1,2,4,8
READFRAC ?= 0.5,0.95
readbench:
	$(GO) run ./cmd/faspbench -readbench BENCH_PR5.json -n $(N) -readers $(READERS) -readfrac $(READFRAC)

# Adaptive-vs-pinned phase benchmark: one three-phase workload (insert-,
# update-, scan-heavy) through the adaptive controller (warm and cold
# start) and the three pinned schemes it chooses between (see DESIGN.md
# §11). Simulated time only — the report is byte-reproducible.
phasebench:
	$(GO) run ./cmd/faspbench -phasebench BENCH_PR6.json -n $(N)

# Network-server benchmark: three loadgen arms (1 sync connection,
# SB_CONNS pipelined connections enqueueing straight on the shard writers,
# and overload against a tiny in-flight gate) against an in-process
# faspserver, with a /metrics self-scrape validated through
# ValidatePrometheus. The report goes to stdout (redirect it to keep it);
# BENCH_PR10.json is the frozen record of the A/B against the removed
# global batcher and is never rewritten. -sb-strict turns a missed
# acceptance target (>=4x simulated speedup vs 1 conn, per-shard commit
# width > 1, BUSY shedding with zero dropped connections) into a non-zero
# exit; see DESIGN.md §12/§14 for the accounting.
SB_CONNS ?= 256
SB_DUR   ?= 2s
serverbench:
	$(GO) run ./cmd/faspbench -serverbench - -sb-conns $(SB_CONNS) -sb-dur $(SB_DUR) -metrics-addr 127.0.0.1:0 -scrape -sb-strict

# Chaos soak: the -race in-process soak test, then the standalone harness —
# a faspserver under a seeded storm of connection kills, torn frames,
# stalls, injected shard-writer panics and whole-server crash-restarts,
# driven by retrying clients, audited by the acked-prefix oracle after a
# final crash recovery. A failure prints the replayable faultx spec; replay
# it with CHAOS_SPEC=fx:1:<seed>:<kill>:<torn>:<stall>:<stallms>:<panic>:<restarts>.
CHAOS_DUR  ?= 3s
CHAOS_SPEC ?= fx:1:42:0.03:0.02:0.005:2:0.004:2
chaos:
	$(GO) test -race -run TestChaosSoak ./internal/server/
	$(GO) run ./cmd/faspbench -chaos - -chaos-spec "$(CHAOS_SPEC)" -chaos-dur $(CHAOS_DUR) > /dev/null

clean:
	rm -f BENCH_PR1.json BENCH_PR2.json BENCH_PR5.json BENCH_PR6.json BENCH_PR7.json
