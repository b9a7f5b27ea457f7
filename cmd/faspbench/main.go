// Command faspbench regenerates the paper's evaluation: one table per
// figure (6–12), the ablation studies and the recovery-time experiment.
// Times are simulated nanoseconds from the PM emulator, so results are
// machine-independent and deterministic for a given seed. Wall-clock
// performance is measured by bench/ (bash bench/run.sh), nowhere else.
//
// Selections add up and print in a fixed order — figures, then ablations,
// then recovery:
//
//	faspbench -fig 6             # one figure
//	faspbench -all               # figures 6..12
//	faspbench -ablations         # the ablation and write-amplification tables
//	faspbench -fig 9 -recovery   # figure 9, then the recovery table
//	faspbench -all -n 100000     # paper-scale transaction counts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fasp/internal/experiment"
)

// Groups a table can belong to; a figure's group is its number (6..12).
const (
	ablationGroup = -1
	recoveryGroup = -2
)

// tables lists everything faspbench can print, in output order.
var tables = []struct {
	name  string
	group int
	run   func(experiment.Params) error
}{
	{"figure 6", 6, table(experiment.RunFig6, experiment.PrintFig6)},
	{"figure 7", 7, table(experiment.RunFig7, experiment.PrintFig7)},
	{"figure 8", 8, table(experiment.RunFig8, experiment.PrintFig8)},
	{"figure 9", 9, table(experiment.RunFig9, experiment.PrintFig9)},
	{"figure 10", 10, table(experiment.RunFig10, experiment.PrintFig10)},
	{"figure 11", 11, table(experiment.RunFig11, experiment.PrintFig11)},
	{"figure 12", 12, table(experiment.RunFig12, experiment.PrintFig12)},
	{"ablation schemes", ablationGroup, table(experiment.RunAblationSchemes, experiment.PrintAblationSchemes)},
	{"ablation page size", ablationGroup, table(experiment.RunAblationPageSize, experiment.PrintAblationPageSize)},
	{"ablation HTM", ablationGroup, table(experiment.RunAblationHTMAborts, experiment.PrintAblationHTMAborts)},
	{"write amplification", ablationGroup, table(experiment.RunWriteAmplification, experiment.PrintWriteAmplification)},
	{"recovery", recoveryGroup, table(experiment.RunRecovery, experiment.PrintRecovery)},
}

// table pairs an experiment with its printer, on stdout.
func table[R any](run func(experiment.Params) (R, error), print func(R, io.Writer)) func(experiment.Params) error {
	return func(p experiment.Params) error {
		rows, err := run(p)
		if err != nil {
			return err
		}
		print(rows, os.Stdout)
		return nil
	}
}

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure to reproduce (6..12)")
		all       = flag.Bool("all", false, "run every figure")
		ablations = flag.Bool("ablations", false, "run the ablation studies")
		recovery  = flag.Bool("recovery", false, "run the recovery-time experiment")
		n         = flag.Int("n", 10000, "transactions per data point (paper: 100000)")
		pageSize  = flag.Int("pagesize", 4096, "database page size in bytes")
		seed      = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	if *fig != 0 && (*fig < 6 || *fig > 12) {
		fmt.Fprintf(os.Stderr, "faspbench: no figure %d (have 6..12)\n", *fig)
		os.Exit(2)
	}
	if *fig == 0 && !*all && !*ablations && !*recovery {
		flag.Usage()
		os.Exit(2)
	}

	p := experiment.Params{N: *n, PageSize: *pageSize, Seed: *seed}
	for _, t := range tables {
		switch t.group {
		case ablationGroup:
			if !*ablations {
				continue
			}
		case recoveryGroup:
			if !*recovery {
				continue
			}
		default:
			if !*all && t.group != *fig {
				continue
			}
		}
		fmt.Println()
		if err := t.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "faspbench: %s: %v\n", t.name, err)
			os.Exit(1)
		}
	}
}
