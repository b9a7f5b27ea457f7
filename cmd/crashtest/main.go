// Command crashtest is a crash-injection recovery checker with two single-
// store modes, a sharded mode and a chaos replay:
//
//   - Random mode (default): -rounds random (crash point, eviction lottery)
//     schedules, the original smoke test.
//   - Exhaustive mode (-exhaustive): the internal/crashx explorer measures
//     the workload's crash-point count, enumerates every crash point up to
//     -budget (0 = all of them, stratified-sampling -samples points past a
//     nonzero budget), sweeps eviction lotteries per point, and checks an
//     exact-state durability oracle after recovery. With -nested it
//     additionally injects a second crash at recovery's own crash points
//     and recovers again, proving recovery idempotent.
//   - Sharded mode (-shards N): concurrent clients against the sharded
//     engine with a crash injected inside one shard's group commit.
//   - Chaos replay (-chaos-spec fx:…): the network server under a seeded
//     faultx schedule for -chaos-dur, audited by the acked-prefix oracle;
//     prints the JSON report. -shards/-clients size the store and the
//     connection count (unset: 8 shards, 12 connections).
//
// Every schedule is deterministic: a violation prints a -repro spec that
// replays the identical failure byte-for-byte:
//
//	crashtest -exhaustive -nested -scheme fast+ -txns 30
//	crashtest -scheme fast+ -txns 30 -repro '734:0.5:12345'
//
// Any oracle violation makes the process exit non-zero; by default it
// stops at the first one (use -keep-going to collect them all).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"fasp/internal/crashx"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
)

func main() {
	var (
		rounds  = flag.Int("rounds", 100, "random mode: crash rounds to run")
		name    = flag.String("scheme", "fast+", "fast+|fast|nvwal|wal|journal (any case)")
		seed    = flag.Int64("seed", 1, "master seed")
		txns    = flag.Int("txns", 30, "workload transactions per run (per client when sharded)")
		shards  = flag.Int("shards", 0, "run the sharded engine with this many shards (0/1 = classic single store)")
		clients = flag.Int("clients", 4, "with -shards: concurrent client goroutines")

		exhaustive = flag.Bool("exhaustive", false, "enumerate crash schedules with the crashx explorer")
		nested     = flag.Bool("nested", false, "with -exhaustive: inject a second crash inside recovery")
		budget     = flag.Int("budget", 0, "with -exhaustive: crash points enumerated from 0 (0 = every point)")
		samples    = flag.Int("samples", 64, "with -exhaustive: stratified samples past the budget")
		lotteries  = flag.Int("lotteries", 2, "with -exhaustive: seeded p=0.5 eviction lotteries per point (plus evict-none/evict-all)")
		nbudget    = flag.Int("nested-budget", 0, "with -nested: recovery crash points enumerated per schedule (0 = every point)")
		nsamples   = flag.Int("nested-samples", 16, "with -nested: stratified samples past the nested budget")
		repro      = flag.String("repro", "", "replay one failing schedule spec (point:prob:seed[/recpoint:recprob:recseed]) and exit")
		keepGoing  = flag.Bool("keep-going", false, "collect every violation instead of stopping at the first")

		chaosSpec = flag.String("chaos-spec", "", "replay this faultx schedule (fx:1:seed:kill:torn:stall:stallms:panic:restarts) against the network server and exit")
		chaosDur  = flag.Duration("chaos-dur", 3*time.Second, "with -chaos-spec: soak duration")
	)
	flag.Parse()

	if *chaosSpec != "" {
		chaosShards, chaosConns := 8, 12
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "shards":
				chaosShards = *shards
			case "clients":
				chaosConns = *clients
			}
		})
		runChaos(*chaosSpec, *chaosDur, chaosShards, chaosConns)
		return
	}

	s, err := scheme.Parse(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: %v\n", err)
		os.Exit(2)
	}

	const cfgPageSize = 256

	if *shards > 1 {
		runSharded(*name, *shards, *clients, *txns, *rounds, *seed, *keepGoing)
		return
	}

	cfg := explorerConfig(s, cfgPageSize, *txns)
	cfg.Seed = *seed

	switch {
	case *repro != "":
		runRepro(cfg, *name, *txns, *repro)
	case *exhaustive:
		cfg.Budget = *budget
		cfg.Samples = *samples
		cfg.Lotteries = *lotteries
		cfg.Nested = *nested
		cfg.NestedBudget = *nbudget
		cfg.NestedSamples = *nsamples
		runExhaustive(cfg, *name, *txns, *keepGoing)
	default:
		runRandom(cfg, *name, *txns, *rounds, *seed, *keepGoing)
	}
}

// lastRun stashes the machine and store of the most recently opened
// schedule, so a violation can dump the run's commit-path counters (the
// explorer runs schedules sequentially).
var lastRun struct {
	sys *pmem.System
	st  scheme.Store
}

// explorerConfig wires crashx to scheme s's store on a fresh machine.
func explorerConfig(s scheme.Scheme, pageSize, txns int) *crashx.Config {
	g := scheme.Geometry{PageSize: pageSize, MaxPages: 4096}
	return &crashx.Config{
		Open: func() (*pmem.System, pager.Store) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			st := s.Create(sys, g)
			lastRun.sys, lastRun.st = sys, st
			return sys, st
		},
		Reattach: func(st pager.Store) (pager.Store, error) {
			return s.Reattach(st.(scheme.Store).Arena(), g)
		},
		Workload: crashx.DefaultWorkload(txns),
	}
}

// dumpMachine prints the failing run's machine-level commit-path evidence
// (simulated clock, fences, PM event counters, phase totals) — the
// single-store analogue of the sharded mode's recorder trace dump.
func dumpMachine() {
	sys := lastRun.sys
	if sys == nil {
		return
	}
	fmt.Printf("  machine at failure: sim=%dns fences=%d crash-points=%d\n",
		sys.Clock().Now(), sys.Fences(), sys.CrashPoints())
	s := lastRun.st.Arena().Stats()
	fmt.Printf("  pm: clflush=%d writebacks=%d stores=%d (%dB) fills=%d hits=%d\n",
		s.FlushCalls, s.LineWritebacks, s.WordStores, s.BytesStored, s.LineFills, s.CacheHits)
	phases := sys.Clock().Phases()
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  phases:")
	for _, name := range names {
		fmt.Printf(" %s=%dns", name, phases[name])
	}
	fmt.Println()
}

// reproCmd renders the one-command reproduction for a failing schedule.
func reproCmd(name string, txns int, spec crashx.Spec) string {
	return fmt.Sprintf("go run ./cmd/crashtest -scheme %s -txns %d -repro '%s'", name, txns, spec)
}

// runRepro replays one pinned schedule and reports its exact outcome.
func runRepro(cfg *crashx.Config, name string, txns int, spec string) {
	s, err := crashx.ParseSpec(spec)
	if err != nil {
		fail("%v", err)
	}
	res := crashx.Run(cfg, s)
	fmt.Printf("crashtest: %s, %d txns, spec %s: crashed=%v acked=%d recCrashed=%v\n",
		name, txns, s, res.Crashed, res.Acked, res.RecCrashed)
	if res.Err != nil {
		fmt.Printf("VIOLATION: %v\n", res.Err)
		dumpMachine()
		os.Exit(1)
	}
	fmt.Println("ok: schedule recovers cleanly")
}

// runExhaustive drives the crashx explorer and reports its schedule
// coverage, printing each violation's repro command the moment it is found.
func runExhaustive(cfg *crashx.Config, name string, txns int, keepGoing bool) {
	if keepGoing {
		cfg.MaxFailures = 1 << 30
	}
	cfg.OnFailure = func(f crashx.Failure) {
		fmt.Printf("VIOLATION at %s: %s\n  reproduce: %s\n", f.Spec, f.Err, reproCmd(name, txns, f.Spec))
		dumpMachine()
	}
	lastPct := -1
	cfg.Progress = func(done, total, runs int) {
		if pct := done * 10 / total; pct > lastPct {
			lastPct = pct
			fmt.Printf("crashtest: %d/%d points explored (%d runs)\n", done, total, runs)
		}
	}
	rep, err := crashx.Explore(cfg)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("crashtest: %s, %d txns, %d crash points (%d enumerated + %d sampled), %d lotteries/point, %d runs (%d nested)\n",
		name, txns, rep.TotalPoints, rep.Enumerated, rep.Sampled, rep.LotteriesPerPoint, rep.Runs, rep.NestedRuns)
	if !rep.Ok() {
		fmt.Printf("crashtest: %d violation(s)\n", len(rep.Failures))
		os.Exit(1)
	}
	fmt.Println("crashtest: all schedules recover cleanly")
}

// runRandom keeps the original randomised smoke test, rebuilt on crashx:
// each round replays one random schedule through the same oracle the
// explorer uses, so failures carry the same reproducible spec.
func runRandom(cfg *crashx.Config, name string, txns, rounds int, seed int64, keepGoing bool) {
	total, err := crashx.Measure(cfg)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("crashtest: %s, %d txns/round, %d crash points per run, %d rounds\n",
		name, txns, total, rounds)
	master := rand.New(rand.NewSource(seed))
	failures := 0
	evictHist := map[string]int{}
	for round := 0; round < rounds; round++ {
		prob := []float64{0, 0.5, 1}[master.Intn(3)]
		evictHist[fmt.Sprintf("p=%.1f", prob)]++
		spec := crashx.Spec{
			Point:    master.Int63n(total),
			Evict:    pmem.CrashOptions{Seed: master.Int63(), EvictProb: prob},
			RecPoint: -1,
		}
		if res := crashx.Run(cfg, spec); res.Err != nil {
			failures++
			fmt.Printf("round %d: VIOLATION at %s: %v\n  reproduce: %s\n",
				round, spec, res.Err, reproCmd(name, txns, spec))
			dumpMachine()
			if !keepGoing {
				os.Exit(1)
			}
		}
	}
	fmt.Printf("crashtest: %d/%d rounds passed (%v)\n", rounds-failures, rounds, evictHist)
	if failures > 0 {
		os.Exit(1)
	}
}

// runSharded drives the randomised sharded-engine rounds.
func runSharded(name string, shards, clients, txns, rounds int, seed int64, keepGoing bool) {
	master := rand.New(rand.NewSource(seed))
	total := measureSharded(name, shards, clients, txns)
	fmt.Printf("crashtest: %s, %d shards, %d clients x %d txns/round, ≥%d crash points per shard, %d rounds\n",
		name, shards, clients, txns, total, rounds)
	failures := 0
	evictHist := map[string]int{}
	for round := 0; round < rounds; round++ {
		victim := master.Intn(shards)
		kpt := master.Int63n(total)
		prob := []float64{0, 0.5, 1}[master.Intn(3)]
		evictHist[fmt.Sprintf("p=%.1f", prob)]++
		opts := pmem.CrashOptions{Seed: master.Int63(), EvictProb: prob}
		if err := oneShardedRound(name, shards, clients, txns, victim, kpt, opts); err != nil {
			failures++
			fmt.Printf("round %d: VIOLATION shard %d crash@%d evict=%.1f seed=%d: %v\n",
				round, victim, kpt, prob, opts.Seed, err)
			if !keepGoing {
				os.Exit(1)
			}
		}
	}
	fmt.Printf("crashtest: %d/%d sharded rounds passed (%v)\n", rounds-failures, rounds, evictHist)
	if failures > 0 {
		os.Exit(1)
	}
}

// fail prints a fatal setup error and exits.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crashtest: "+format+"\n", args...)
	os.Exit(1)
}

func key(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
func val(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 40) }
