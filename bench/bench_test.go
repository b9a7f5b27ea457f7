package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Tiny sizes of the four workloads: the same code paths as the full
// benchmark in a few seconds.
var (
	kvTiny       = kvSizing{preload: 2_000, simOps: 2_000, valMin: 32, valMax: 256, setups: 1}
	sqlTiny      = sqlSizing{preload: 500, simOps: 1_000, valMin: 32, valMax: 128, setups: 1}
	srvWriteTiny = srvSizing{shards: 4, conns: 2, keys: 2_000, valLen: 64, depth: 16, batch: 8, setups: 1, calibrate: 0.1, probe: 50}
	srvMixedTiny = srvSizing{shards: 4, conns: 2, keys: 1_024, valLen: 64, depth: 1, scanLen: 16, zipf: 0.99, sessions: true, openRate: 2_000, setups: 1, calibrate: 0.1, probe: 50}
)

func tinyArgs(t *testing.T, seed int64, trace bool) args {
	outDir = t.TempDir()
	return args{seed: seed, seconds: 0.3, trace: trace}
}

// runTiny runs one workload at its tiny size. A run the benchmark itself
// declares invalid (the generator could not hold its schedule on a loaded
// machine) skips the test instead of failing it.
func runTiny(t *testing.T, name string, a args) *result {
	t.Helper()
	var r *result
	var err error
	switch name {
	case "kv-write":
		r, err = runKVWrite(a, kvTiny)
	case "sql-insert":
		r, err = runSQLInsert(a, sqlTiny)
	case "server-write":
		r, err = runServer(a, name, srvWriteTiny, srvWriteMix)
	case "server-mixed":
		r, err = runServer(a, name, srvMixedTiny, srvMixedMix)
	}
	var invalid invalidRun
	if errors.As(err, &invalid) {
		t.Skipf("%s: %v", name, err)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r.seal()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d notes=%v", name, r.Correct, r.Attempted, r.Failed, r.Notes)
	}
	return r
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatal(err)
	}
	return def
}

// lastLine parses the driver's JSON object from what a result prints.
func lastLine(t *testing.T, r *result) map[string]struct {
	Value *float64
	Unit  string
} {
	t.Helper()
	var buf bytes.Buffer
	r.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 {
		t.Fatalf("last line has %d keys, want exactly correct, attempted, failed, metrics: %s", len(last), lines[len(lines)-1])
	}
	var metrics map[string]struct {
		Value *float64
		Unit  string
	}
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	return metrics
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric tables and workload list in step, and inside the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	def := readBenchmarkJSON(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(def.EndToEnd) != len(endToEndDefs) || len(def.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(def.EndToEnd), len(def.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string, d metricDef) {
		if name != d.Name || unit != d.Unit || better != d.Better {
			t.Errorf("BENCHMARK.json {%s %s %s} != program {%s %s %s}", name, unit, better, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for i, m := range def.EndToEnd {
		check(m.Name, m.Unit, m.Better, endToEndDefs[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for i, m := range def.PerLayer {
		check(m.Name, m.Unit, m.Better, perLayerDefs[i])
	}
}

// TestEveryMetricEmittedOnce runs every workload untraced and checks the
// driver's line carries each end-to-end metric exactly once, with its
// unit, and never the value 0.
func TestEveryMetricEmittedOnce(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			got := lastLine(t, runTiny(t, w.name, tinyArgs(t, 1, false)))
			if len(got) != len(endToEndDefs) {
				t.Fatalf("%d metrics on the last line, want %d", len(got), len(endToEndDefs))
			}
			for _, d := range endToEndDefs {
				m, ok := got[d.Name]
				if !ok || m.Unit != d.Unit || m.Value == nil {
					t.Fatalf("metric %s missing or without unit %s: %+v", d.Name, d.Unit, m)
				}
				if *m.Value == 0 || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("metric %s = %v; end-to-end metrics are never 0", d.Name, *m.Value)
				}
			}
		})
	}
}

// TestTracedRunEmitsEveryLayerMetric runs one traced workload and checks
// the driver's line carries each per-layer metric exactly once, and that
// the span file was written.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	a := tinyArgs(t, 1, true)
	got := lastLine(t, runTiny(t, "server-mixed", a))
	if len(got) != len(perLayerDefs) {
		t.Fatalf("%d metrics on the last line, want %d", len(got), len(perLayerDefs))
	}
	for _, d := range perLayerDefs {
		if m, ok := got[d.Name]; !ok || m.Unit != d.Unit || m.Value == nil {
			t.Fatalf("metric %s missing or without unit %s", d.Name, d.Unit)
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "trace-server-mixed.json")); err != nil {
		t.Fatal(err)
	}
}

var simMetrics = []string{"sim_us_per_op", "flushes_per_write", "pm_write_amp", "space_amp"}

// TestSimMetricsRepeatExactly: on the embedded workloads the four
// simulated-clock metrics are a function of the seed alone.
func TestSimMetricsRepeatExactly(t *testing.T) {
	for _, name := range []string{"kv-write", "sql-insert"} {
		t.Run(name, func(t *testing.T) {
			a := runTiny(t, name, tinyArgs(t, 7, false))
			b := runTiny(t, name, tinyArgs(t, 7, false))
			c := runTiny(t, name, tinyArgs(t, 8, false))
			differs := false
			for _, m := range simMetrics {
				if a.EndToEnd[m].Value != b.EndToEnd[m].Value {
					t.Errorf("%s: %v then %v from the same seed", m, a.EndToEnd[m].Value, b.EndToEnd[m].Value)
				}
				differs = differs || a.EndToEnd[m].Value != c.EndToEnd[m].Value
			}
			if !differs {
				t.Error("another seed gave identical simulated metrics: the seed does not reach the inputs")
			}
		})
	}
}

// TestKVWriteLedgerCloses: the layers' self times, measured independently,
// add up to the untraced op span within a tenth.
func TestKVWriteLedgerCloses(t *testing.T) {
	a := tinyArgs(t, 1, true)
	sz := kvTiny
	sz.simOps = 20_000 // enough ops for the arms' host times to settle
	r, err := runKVWrite(a, sz)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Fatalf("failed=%d", r.Failed)
	}
	b, err := os.ReadFile(filepath.Join(outDir, "trace-kv-write.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Trees["bare-tree"]) == 0 || len(f.Replays["bare-tree"]) == 0 {
		t.Fatal("trace file holds no spans")
	}
	if gap := math.Abs(f.LedgerSumNS-f.LedgerOpNS) / f.LedgerOpNS; gap > 0.10 {
		t.Errorf("ledger sums to %.0f ns against an op span of %.0f ns: %.1f%% apart", f.LedgerSumNS, f.LedgerOpNS, 100*gap)
	}
}

// TestCompareVerdicts drives -compare over two synthetic result files.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	def := readBenchmarkJSON(t)
	write := func(name string, scale map[string]float64) string {
		var runs []*result
		for _, w := range def.Workloads {
			r := newResult(w.Name, 1, 1, false)
			for _, d := range endToEndDefs {
				s := 1.0
				if v, ok := scale[w.Name+"/"+d.Name]; ok {
					s = v
				}
				r.EndToEnd[d.Name] = value{Value: 100 * s, Unit: d.Unit}
			}
			runs = append(runs, r)
		}
		p := filepath.Join(dir, name)
		if err := appendResults(p, runs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", nil)
	var buf bytes.Buffer
	if bad, err := compareFiles(&buf, filepath.Join("..", "BENCHMARK.json"), base, write("same.json", nil)); err != nil || bad {
		t.Fatalf("identical files: bad=%v err=%v\n%s", bad, err, buf.String())
	}
	buf.Reset()
	changed := write("changed.json", map[string]float64{
		"server-write/throughput_ops_s": 0.5,    // halved: worse
		"server-mixed/lat_p50_us":       0.5,    // halved: better
		"kv-write/sim_us_per_op":        1.0001, // exact metric moved at all: worse
	})
	bad, err := compareFiles(&buf, filepath.Join("..", "BENCHMARK.json"), base, changed)
	if err != nil || !bad {
		t.Fatalf("bad=%v err=%v", bad, err)
	}
	for _, want := range []string{
		`server-write\s+throughput_ops_s\s.*worse`,
		`server-mixed\s+lat_p50_us\s.*better`,
		`kv-write\s+sim_us_per_op\s.*worse`,
		`sql-insert\s+sim_us_per_op\s.*same`,
	} {
		if !regexp.MustCompile(want).MatchString(buf.String()) {
			t.Errorf("no row matching %s in\n%s", want, buf.String())
		}
	}
}

// TestRulerTicksOncePerInterval: a tick is booked under its slice, a second
// one inside the same millisecond is skipped, and a slice without ticks
// leaves its numbers as the clock read them.
func TestRulerTicksOncePerInterval(t *testing.T) {
	r, w := theRuler(), newWindow(10)
	var rec rulerRec
	for r.tick(w, &rec) == 0 { // another test may have ticked within the last millisecond
	}
	if d := r.tick(w, &rec); d != 0 {
		t.Errorf("second tick inside the interval ran for %v", d)
	}
	if rec.n[0] != 1 || rec.ns[0] <= 0 || rec.slowdown(0) <= 0 {
		t.Errorf("slice 0 holds %d ticks, %d ns", rec.n[0], rec.ns[0])
	}
	if got := rec.slowdown(1); got != 1 {
		t.Errorf("slowdown of a slice without ticks = %v, want 1", got)
	}
}
