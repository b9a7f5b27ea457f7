GO ?= go

.PHONY: all build vet test race goldens results crashx obsv fuzz bench profile bench-pairs chaos loc sqlcover clean

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
# golden_shards.json, golden_defrag.json). Only a change that means to
# alter the simulated machine runs this, and it lists the per-scheme deltas
# (see DESIGN.md §6).
goldens:
	$(GO) test -run 'TestGoldenDeterminism$$' -update-golden .
	$(GO) test -run 'TestGoldenShardedDeterminism$$' -update-golden .
	$(GO) test -run 'TestGoldenDefragDeterminism$$' -update-golden .

# Regenerate the checked-in figure tables: everything at n = 20000, and
# Figs 6 and 8 and recovery at the paper's n = 100000. The output is a
# function of the code alone (simulated time, seeded workloads); CI diffs
# the first file against its regeneration.
results:
	$(GO) run ./cmd/faspbench -all -ablations -recovery -n 20000 > results_n20000.txt
	$(GO) run ./cmd/faspbench -fig 6 -n 100000 > results_paper_scale.txt
	$(GO) run ./cmd/faspbench -fig 8 -recovery -n 100000 >> results_paper_scale.txt

# Exhaustive crash-schedule exploration with nested recovery crashes, the
# CI smoke configuration; run with BUDGET=0 for full enumeration.
BUDGET ?= 60
crashx:
	$(GO) run ./cmd/crashtest -exhaustive -nested -budget $(BUDGET) -samples 30 -nested-budget 12 -nested-samples 6 -scheme fast+ -txns 12
	$(GO) run ./cmd/crashtest -exhaustive -nested -budget $(BUDGET) -samples 30 -nested-budget 12 -nested-samples 6 -scheme fast -txns 12
	$(GO) run ./cmd/crashtest -exhaustive -nested -budget $(BUDGET) -samples 30 -nested-budget 12 -nested-samples 6 -scheme nvwal -txns 12

# Observability smoke: vet, the obsv + facade metrics tests, then the two
# tests that serve /metrics (facade and network server), scrape it once and
# validate the Prometheus text exposition.
obsv:
	$(GO) vet ./...
	$(GO) test ./internal/obsv/ .
	$(GO) test -run 'TestServeMetricsScrape|TestMetricsEndpoint' . ./internal/server/

# Every native fuzz target, each for FUZZTIME (go test takes one -fuzz
# target per run). Crashers land in the package's testdata/fuzz/, where
# go test replays them from then on.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzPageSearch$$' -fuzztime $(FUZZTIME) ./internal/slotted
	$(GO) test -run '^$$' -fuzz '^FuzzRelocate$$' -fuzztime $(FUZZTIME) ./internal/slotted
	$(GO) test -run '^$$' -fuzz '^FuzzLogImage$$' -fuzztime $(FUZZTIME) ./internal/shlog
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzWireFrame$$' -fuzztime $(FUZZTIME) ./internal/server/wire
	$(GO) test -run '^$$' -fuzz '^FuzzScanReply$$' -fuzztime $(FUZZTIME) ./internal/server/wire
	$(GO) test -run '^$$' -fuzz '^FuzzSQL$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzWalk$$' -fuzztime $(FUZZTIME) ./internal/btree

# Go-benchmark view (wall clock + simulated metrics + allocs).
bench:
	$(GO) test -bench 'BenchmarkInsert|BenchmarkGet' -benchmem -run '^$$' .

# Host CPU profile of a workload's op shape: PROFILE_BENCH (BenchmarkKVChurn,
# kv-write's; BenchmarkSQLStatements, sql-insert's; BenchmarkScanPage,
# server-mixed's range read; BenchmarkBulkLoad, server-write's preload) for
# PROFILE_OPS ops, then the top PROFILE_TOP entries of its measured loop
# alone (each benchmark labels it phase=churn, which leaves the preload, or
# opening the stores, out). The profile and the
# test binary stay in .bench_build/ for further go tool pprof use.
PROFILE_BENCH ?= BenchmarkKVChurn
PROFILE_OPS ?= 300000
PROFILE_TOP ?= 40
profile:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^$(PROFILE_BENCH)$$' -benchtime $(PROFILE_OPS)x -benchmem -o .bench_build/fasp.test -cpuprofile .bench_build/$(PROFILE_BENCH).prof .
	$(GO) tool pprof -top -nodecount $(PROFILE_TOP) -relative_percentages -tagfocus phase=churn .bench_build/fasp.test .bench_build/$(PROFILE_BENCH).prof

# The gated benchmark, parent against working tree: PAIRS alternating runs
# of WORKLOAD on each side, then bench/run.sh --compare (see
# scripts/bench-pairs.sh). Quiet machine only.
BASE     ?= HEAD
WORKLOAD ?= kv-write
PAIRS    ?= 3
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) $(WORKLOAD) $(PAIRS)

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
	$(GO) run ./cmd/crashtest -chaos-spec "$(CHAOS_SPEC)" -chaos-dur $(CHAOS_DUR) > /dev/null

# Go line counts outside bench/, non-test and test files apart, each whole
# and code-only (code-only drops blank lines and lines holding only a //
# comment): the numbers a simplicity change reports.
LOC_COUNT = awk '{ n++ } !/^[[:space:]]*(\/\/.*)?$$/ { c++ } END { printf "%-9s %6d whole %6d code-only\n", kind, n, c }'
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' | xargs cat | $(LOC_COUNT) kind=non-test
	@find . -name '*_test.go' ! -path './bench/*' ! -path './.*' | xargs cat | $(LOC_COUNT) kind=test

# Union statement coverage of what the SQL harness runs: the n = 20000
# figure set and the traced sql-insert bench at seed 1, each from a
# -cover build, merged with go tool covdata. Prints every package's
# percentage, then the functions of internal/engine and internal/sql that
# never ran. The bench binary is built from bench/ with -coverpkg=fasp/...:
# a narrower pattern writes no counter files.
COVER_DIR = .bench_build/sqlcover
sqlcover:
	rm -rf $(COVER_DIR)
	mkdir -p $(COVER_DIR)/figs.cov $(COVER_DIR)/bench.cov $(COVER_DIR)/merged.cov
	$(GO) build -cover -coverpkg=./... -o $(COVER_DIR)/faspbench ./cmd/faspbench
	cd bench && $(GO) build -cover -coverpkg=fasp/... -o ../$(COVER_DIR)/sqlbench .
	GOCOVERDIR=$(COVER_DIR)/figs.cov $(COVER_DIR)/faspbench -all -ablations -recovery -n 20000 > /dev/null
	GOCOVERDIR=$(COVER_DIR)/bench.cov $(COVER_DIR)/sqlbench -workload sql-insert -seed 1 -seconds 3 -trace 1 > /dev/null
	$(GO) tool covdata merge -i=$(COVER_DIR)/figs.cov,$(COVER_DIR)/bench.cov -o $(COVER_DIR)/merged.cov
	$(GO) tool covdata percent -i=$(COVER_DIR)/merged.cov
	$(GO) tool covdata textfmt -i=$(COVER_DIR)/merged.cov -o $(COVER_DIR)/cover.out
	@echo "never run in internal/engine and internal/sql:"
	@grep -E '^mode:|^fasp/internal/(engine|sql)/' $(COVER_DIR)/cover.out > $(COVER_DIR)/sql.out
	@$(GO) tool cover -func=$(COVER_DIR)/sql.out | awk '$$NF == "0.0%"'

# Removes ignored build output only; nothing tracked.
clean:
	rm -rf .bench_build
