package crashx_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fasp/internal/crashx"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
)

// testConfig builds an explorer config for one scheme on a tiny geometry:
// every explored schedule replays the workload on a fresh arena, so small
// page/log spaces keep the allocation cost of tens of thousands of replays
// negligible.
func testConfig(name string, txns int) *crashx.Config {
	s, err := scheme.Parse(name)
	if err != nil {
		panic(err)
	}
	g := scheme.Geometry{PageSize: 256, MaxPages: 64, LogBytes: 8 << 10}
	if !s.IsFAST() {
		g.LogBytes = 64 << 10
	}
	return &crashx.Config{
		Open: func() (*pmem.System, pager.Store) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			return sys, s.Create(sys, g)
		},
		Reattach: func(st pager.Store) (pager.Store, error) {
			return s.Reattach(st.(scheme.Store).Arena(), g)
		},
		Workload: crashx.DefaultWorkload(txns),
		Seed:     1,
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []crashx.Spec{
		{Point: 0, Evict: pmem.EvictNone, RecPoint: -1},
		{Point: 734, Evict: pmem.CrashOptions{Seed: 12345, EvictProb: 0.5}, RecPoint: -1},
		{
			Point: 9, Evict: pmem.EvictAll,
			RecPoint: 88, RecEvict: pmem.CrashOptions{Seed: 7, EvictProb: 0.25},
		},
	}
	for _, want := range specs {
		got, err := crashx.ParseSpec(want.String())
		if err != nil {
			t.Fatalf("parse %q: %v", want.String(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %q: got %+v", want.String(), got)
		}
	}
	for _, bad := range []string{"", "1:2", "x:0:0", "1:-0.5:0", "1:1.5:0", "1:0:0/2", "-1:0:0"} {
		if _, err := crashx.ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestScheduleDeterministicAndComplete(t *testing.T) {
	// Full enumeration when the budget covers the range.
	full, err := crashx.Explore(cloneSmall(t, "fast+", 4))
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalPoints <= 0 || full.Enumerated != int(full.TotalPoints) || full.Sampled != 0 {
		t.Fatalf("full enumeration bookkeeping wrong: %+v", full)
	}
	if !full.Ok() {
		t.Fatalf("oracle violations on fast+: %+v", full.Failures)
	}
	if full.Runs != int(full.TotalPoints)*full.LotteriesPerPoint {
		t.Fatalf("runs = %d, want points(%d) x lotteries(%d)", full.Runs, full.TotalPoints, full.LotteriesPerPoint)
	}
}

func cloneSmall(t *testing.T, name string, txns int) *crashx.Config {
	t.Helper()
	cfg := testConfig(name, txns)
	cfg.Lotteries = 1
	return cfg
}

// TestExploreBudgeted: budget + stratified sampling explore a strict subset,
// reproducibly, with zero oracle violations on every scheme.
func TestExploreBudgeted(t *testing.T) {
	for _, name := range []string{"fast+", "fast", "nvwal"} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(name, 12)
			cfg.Budget = 25
			cfg.Samples = 10
			cfg.Lotteries = 1
			rep, err := crashx.Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("%d violations, first: %s → %s",
					len(rep.Failures), rep.Failures[0].Spec, rep.Failures[0].Err)
			}
			if rep.Enumerated != 25 || rep.Sampled == 0 || rep.Sampled > 10 {
				t.Fatalf("schedule bookkeeping: %+v", rep)
			}
		})
	}
}

// TestExploreNested: a second crash at every recovery crash point of the
// first few schedules must still recover to an oracle-clean state —
// recovery is idempotent.
func TestExploreNested(t *testing.T) {
	for _, name := range []string{"fast+", "fast", "nvwal"} {
		t.Run(name, func(t *testing.T) {
			// Full primary enumeration of a small workload guarantees
			// hitting the windows where recovery actually replays state
			// (log checkpointing, WAL replay), where nested crashes bite.
			// Recovery points are capped per schedule to bound test time;
			// the CLI's -exhaustive -nested run sweeps them all. NVWAL
			// recovers (replays its WAL chain) after nearly every crash
			// point, so its primary schedule is budgeted too.
			cfg := testConfig(name, 5)
			cfg.Lotteries = 1
			cfg.Nested = true
			cfg.NestedBudget = 12
			cfg.NestedSamples = 6
			if name == "nvwal" {
				cfg.Budget = 60
				cfg.Samples = 30
			}
			rep, err := crashx.Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("%d violations, first: %s → %s",
					len(rep.Failures), rep.Failures[0].Spec, rep.Failures[0].Err)
			}
			if rep.NestedRuns == 0 {
				t.Fatal("nested exploration ran no nested schedules")
			}
		})
	}
}

// TestFailureRepro deliberately weakens the oracle (an extra Check that
// rejects any crash losing an unacknowledged transaction — i.e. almost
// every real crash) and verifies the explorer reports the schedule and that
// replaying the reported Spec reproduces the identical error byte-for-byte,
// including after a String/ParseSpec round trip.
func TestFailureRepro(t *testing.T) {
	cfg := testConfig("fast", 10)
	cfg.Lotteries = 1
	cfg.MaxFailures = 3
	wl := len(cfg.Workload)
	cfg.Check = func(got map[string]string, acked int) error {
		if acked < wl {
			return fmt.Errorf("weakened invariant: only %d/%d txns acknowledged", acked, wl)
		}
		return nil
	}
	rep, err := crashx.Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("weakened oracle produced no failures")
	}
	f := rep.Failures[0]
	if !strings.Contains(f.Err, "weakened invariant") {
		t.Fatalf("unexpected failure class: %s", f.Err)
	}
	// Byte-for-byte reproduction from the parsed spec string.
	spec, err := crashx.ParseSpec(f.Spec.String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res := crashx.Run(cfg, spec)
		if res.Err == nil || res.Err.Error() != f.Err {
			t.Fatalf("replay %d diverged:\n got: %v\nwant: %s", i, res.Err, f.Err)
		}
	}
}

// TestRunDeterminism: the same spec replayed twice yields identical results
// (acked count, crash flags, recovery point count).
func TestRunDeterminism(t *testing.T) {
	cfg := testConfig("fast+", 10)
	spec := crashx.Spec{Point: 200, Evict: pmem.CrashOptions{Seed: 99, EvictProb: 0.5}, RecPoint: -1}
	a := crashx.Run(cfg, spec)
	b := crashx.Run(cfg, spec)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical specs diverged: %+v vs %+v", a, b)
	}
	if !a.Crashed || a.Acked >= len(cfg.Workload) {
		t.Fatalf("crash point 200 did not land inside the workload: %+v", a)
	}
}
