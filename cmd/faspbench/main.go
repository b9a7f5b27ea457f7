// Command faspbench regenerates the paper's evaluation: one table per
// figure (6–12) plus the ablation studies. Times are simulated nanoseconds
// from the PM emulator, so results are machine-independent and
// deterministic for a given seed.
//
// Usage:
//
//	faspbench -fig 6            # one figure
//	faspbench -all              # figures 6..12
//	faspbench -ablations        # the three ablation tables
//	faspbench -all -n 100000    # paper-scale transaction counts
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fasp/internal/experiment"
)

// defaultShards maps the shared -shards flag (0 = unset) to a
// mode-specific default partition count.
func defaultShards(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to reproduce (6..12)")
		all        = flag.Bool("all", false, "run every figure")
		ablations  = flag.Bool("ablations", false, "run the ablation studies")
		recovery   = flag.Bool("recovery", false, "run the recovery-time experiment")
		n          = flag.Int("n", 10000, "transactions per data point (paper: 100000)")
		pageSize   = flag.Int("pagesize", 4096, "database page size in bytes")
		seed       = flag.Int64("seed", 42, "workload seed")
		benchJSON  = flag.String("benchjson", "", "write wall-clock insert/search benchmark JSON to this file ('-' = stdout)")
		baseline   = flag.String("baseline", "", "previous -benchjson report to embed for comparison")
		shards     = flag.Int("shards", 0, "with -benchjson: also benchmark a sharded KV with this many shards (vs a shards=1 baseline)")
		clients    = flag.Int("clients", 1, "with -shards: concurrent client goroutines")
		maxBatch   = flag.Int("maxbatch", 0, "with -shards: group-commit drain bound (0 = default)")
		mAddr      = flag.String("metrics-addr", "", "with -shards: serve /metrics on this address during the sharded run (e.g. 127.0.0.1:0)")
		scrape     = flag.Bool("scrape", false, "with -metrics-addr: self-scrape /metrics once and validate the Prometheus text (CI smoke)")
		readbench  = flag.String("readbench", "", "write the read-scaling benchmark JSON to this file ('-' = stdout)")
		phasebench = flag.String("phasebench", "", "write the adaptive-vs-pinned phase benchmark JSON to this file ('-' = stdout)")
		readfrac   = flag.String("readfrac", "0.5,0.95", "with -readbench: comma list of read fractions of the mixed workload")
		readers    = flag.String("readers", "1,2,4,8", "with -readbench: comma list of reader goroutine counts to sweep")

		serverbench = flag.String("serverbench", "", "write the network-server benchmark JSON to this file ('-' = stdout)")
		sbConns     = flag.Int("sb-conns", 256, "with -serverbench: connections in the many-client arm")
		sbDur       = flag.Duration("sb-dur", 2*time.Second, "with -serverbench: load duration per arm")
		sbValue     = flag.Int("sb-value", 64, "with -serverbench: PUT value size in bytes")
		sbBatch     = flag.Int("sb-batch", 1, "with -serverbench: ops per BATCH request (1 = single PUTs)")
		sbPipeline  = flag.Int("sb-pipeline", 4, "with -serverbench: pipelined requests per connection")
		sbScheme    = flag.String("sb-scheme", "", "with -serverbench: commit scheme (default fast+)")
		sbOverInfl  = flag.Int("sb-over-inflight", 4, "with -serverbench: MaxInFlight of the overload arm")
		sbStrict    = flag.Bool("sb-strict", false, "with -serverbench: exit non-zero if acceptance targets are missed")

		chaos      = flag.String("chaos", "", "write the chaos-soak report JSON to this file ('-' = stdout); non-zero exit on an oracle violation")
		chaosSpec  = flag.String("chaos-spec", "fx:1:42:0.03:0.02:0.005:2:0.004:2", "with -chaos: replayable faultx fault schedule")
		chaosDur   = flag.Duration("chaos-dur", 3*time.Second, "with -chaos: soak duration")
		chaosConns = flag.Int("chaos-conns", 12, "with -chaos: retrying client connections")
	)
	flag.Parse()

	if *chaos != "" {
		err := runChaosBench(chaosBenchConfig{
			out: *chaos, spec: *chaosSpec, dur: *chaosDur,
			conns: *chaosConns, shards: defaultShards(*shards, 8),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "faspbench: chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *serverbench != "" {
		err := runServerBench(serverBenchConfig{
			out: *serverbench, conns: *sbConns, dur: *sbDur, valueSize: *sbValue,
			batchSize: *sbBatch, pipeline: *sbPipeline, overInflit: *sbOverInfl,
			// Serverbench defaults to 16 partitions, the configuration
			// BENCH_PR10.json recorded, so runs stay comparable with it.
			shards: defaultShards(*shards, 16), scheme: *sbScheme, pageSize: *pageSize, maxBatch: *maxBatch, seed: *seed,
			metricsAddr: *mAddr, scrape: *scrape, strict: *sbStrict,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "faspbench: serverbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *phasebench != "" {
		if err := runPhaseBench(*phasebench, *n, *pageSize, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "faspbench: phasebench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *readbench != "" {
		rl, err := parseIntList(*readers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faspbench: -readers: %v\n", err)
			os.Exit(2)
		}
		fl, err := parseFloatList(*readfrac)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faspbench: -readfrac: %v\n", err)
			os.Exit(2)
		}
		if err := runReadBench(*readbench, *n, *pageSize, *seed, *shards, *maxBatch, rl, fl); err != nil {
			fmt.Fprintf(os.Stderr, "faspbench: readbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *baseline, *n, *pageSize, *seed, *shards, *clients, *maxBatch, *mAddr, *scrape); err != nil {
			fmt.Fprintf(os.Stderr, "faspbench: benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	p := experiment.Params{N: *n, PageSize: *pageSize, Seed: *seed}
	figs := map[int]func() error{
		6: func() error {
			rows, err := experiment.RunFig6(p)
			if err != nil {
				return err
			}
			experiment.PrintFig6(rows, os.Stdout)
			return nil
		},
		7: func() error {
			rows, err := experiment.RunFig7(p)
			if err != nil {
				return err
			}
			experiment.PrintFig7(rows, os.Stdout)
			return nil
		},
		8: func() error {
			rows, err := experiment.RunFig8(p)
			if err != nil {
				return err
			}
			experiment.PrintFig8(rows, os.Stdout)
			return nil
		},
		9: func() error {
			rows, err := experiment.RunFig9(p)
			if err != nil {
				return err
			}
			experiment.PrintFig9(rows, os.Stdout)
			return nil
		},
		10: func() error {
			rows, err := experiment.RunFig10(p)
			if err != nil {
				return err
			}
			experiment.PrintFig10(rows, os.Stdout)
			return nil
		},
		11: func() error {
			rows, err := experiment.RunFig11(p)
			if err != nil {
				return err
			}
			experiment.PrintFig11(rows, os.Stdout)
			return nil
		},
		12: func() error {
			rows, err := experiment.RunFig12(p)
			if err != nil {
				return err
			}
			experiment.PrintFig12(rows, os.Stdout)
			return nil
		},
	}

	run := func(id int) {
		fmt.Println()
		if err := figs[id](); err != nil {
			fmt.Fprintf(os.Stderr, "faspbench: figure %d: %v\n", id, err)
			os.Exit(1)
		}
	}

	switch {
	case *all:
		for id := 6; id <= 12; id++ {
			run(id)
		}
		if *ablations {
			runAblations(p)
		}
		if *recovery {
			runRecovery(p)
		}
	case *ablations:
		runAblations(p)
		if *recovery {
			runRecovery(p)
		}
	case *recovery:
		runRecovery(p)
	case *fig != 0:
		if _, ok := figs[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "faspbench: no figure %d (have 6..12)\n", *fig)
			os.Exit(2)
		}
		run(*fig)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runRecovery(p experiment.Params) {
	fmt.Println()
	rows, err := experiment.RunRecovery(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faspbench: recovery: %v\n", err)
		os.Exit(1)
	}
	experiment.PrintRecovery(rows, os.Stdout)
}

func runAblations(p experiment.Params) {
	fmt.Println()
	if rows, err := experiment.RunAblationSchemes(p); err == nil {
		experiment.PrintAblationSchemes(rows, os.Stdout)
	} else {
		fmt.Fprintf(os.Stderr, "faspbench: ablation schemes: %v\n", err)
		os.Exit(1)
	}
	fmt.Println()
	if rows, err := experiment.RunAblationPageSize(p); err == nil {
		experiment.PrintAblationPageSize(rows, os.Stdout)
	} else {
		fmt.Fprintf(os.Stderr, "faspbench: ablation page size: %v\n", err)
		os.Exit(1)
	}
	fmt.Println()
	if rows, err := experiment.RunAblationHTMAborts(p); err == nil {
		experiment.PrintAblationHTMAborts(rows, os.Stdout)
	} else {
		fmt.Fprintf(os.Stderr, "faspbench: ablation HTM: %v\n", err)
		os.Exit(1)
	}
	fmt.Println()
	if rows, err := experiment.RunWriteAmplification(p); err == nil {
		experiment.PrintWriteAmplification(rows, os.Stdout)
	} else {
		fmt.Fprintf(os.Stderr, "faspbench: write amplification: %v\n", err)
		os.Exit(1)
	}
}
