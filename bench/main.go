// Command bench is the repository's one benchmark: four workloads, every
// metric on both clocks (the emulated PM machine's and this host's), and a
// traced run that prices each layer from outside. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// args is one run's command line.
type args struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

var workloads = []struct {
	name string
	run  func(args) (*result, error)
}{
	{"kv-write", func(a args) (*result, error) { return runKVWrite(a, kvFull) }},
	{"sql-insert", func(a args) (*result, error) { return runSQLInsert(a, sqlFull) }},
	{"server-write", func(a args) (*result, error) { return runServer(a, "server-write", srvWriteFull, srvWriteMix) }},
	{"server-mixed", func(a args) (*result, error) { return runServer(a, "server-mixed", srvMixedFull, srvMixedMix) }},
}

func main() {
	var a args
	var trace int
	flag.StringVar(&a.workload, "workload", "all", "kv-write, sql-insert, server-write, server-mixed, or all")
	flag.Int64Var(&a.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&a.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 repeats the workload as the traced run that yields the per-layer metrics")
	flag.StringVar(&a.out, "out", "", "append the runs' results to this JSON file")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition (bounds for -compare)")
	flag.Parse()
	a.trace = trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs of this machine", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	var results []*result
	ok := true
	for _, w := range workloads {
		if a.workload != "all" && a.workload != w.name {
			continue
		}
		r, err := w.run(a)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		r.seal()
		r.print(os.Stdout)
		results = append(results, r)
		ok = ok && r.Correct
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("unknown workload %q", a.workload))
	}
	if a.out != "" {
		if err := appendResults(a.out, results); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
