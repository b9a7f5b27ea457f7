package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkDef is the part of BENCHMARK.json the comparison needs.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkDef(path string) (benchmarkDef, error) {
	var d benchmarkDef
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// exactOn lists the metrics that must repeat bit for bit on the embedded
// workloads: one goroutine, a fixed op count, a fixed seed. BENCHMARK.json
// holds one bound per metric and the server workloads need slack there
// (group-commit width is a race), so the comparison applies the stricter
// rule itself whenever both files ran the same seeds.
var exactOn = map[string][]string{
	"kv-write":   {"sim_us_per_op", "flushes_per_write", "pm_write_amp", "space_amp"},
	"sql-insert": {"sim_us_per_op", "flushes_per_write", "pm_write_amp", "space_amp"},
}

// side is one file's untraced runs of one workload.
type side struct{ runs []*result }

func (s side) seeds() []int64 {
	var out []int64
	for _, r := range s.runs {
		out = append(out, r.Seed)
	}
	slices.Sort(out)
	return out
}

// metric returns the median of the metric over the side's runs and its
// spread as a share of that median: the inter-quartile range across runs
// when there are at least four, otherwise the widest slice IQR any run
// reported for it.
func (s side) metric(name string) (median, spread float64) {
	var vals []float64
	var within float64
	for _, r := range s.runs {
		v := r.EndToEnd[name]
		vals = append(vals, v.Value)
		if v.Value != 0 {
			within = max(within, v.IQR/v.Value)
		}
	}
	sum := summarise(vals)
	if sum.Median == 0 {
		return 0, 0
	}
	if len(vals) >= 4 {
		return sum.Median, sum.IQR / sum.Median
	}
	return sum.Median, within
}

func (s side) failed() (n int64) {
	for _, r := range s.runs {
		n += r.Failed
	}
	return n
}

// compareFiles prints one row per (workload, metric) with the verdict the
// benchmark's own bounds give, and reports whether any row is worse or
// unresolved.
func compareFiles(w io.Writer, benchPath, basePath, newPath string) (bool, error) {
	def, err := readBenchmarkDef(benchPath)
	if err != nil {
		return false, err
	}
	files := [2]resultFile{}
	for i, p := range []string{basePath, newPath} {
		if files[i], err = readResults(p); err != nil {
			return false, err
		}
	}
	pick := func(f resultFile, workload string) side {
		var s side
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Traced {
				s.runs = append(s.runs, r)
			}
		}
		return s
	}
	bad := false
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "spread", "verdict")
	for _, wl := range def.Workloads {
		base, cur := pick(files[0], wl.Name), pick(files[1], wl.Name)
		if len(base.runs) == 0 || len(cur.runs) == 0 {
			fmt.Fprintf(w, "%-13s missing from one of the files\n", wl.Name)
			bad = true
			continue
		}
		sameSeeds := slices.Equal(base.seeds(), cur.seeds())
		for _, m := range def.EndToEnd {
			b, bs := base.metric(m.Name)
			c, cs := cur.metric(m.Name)
			if b == 0 {
				fmt.Fprintf(w, "%-13s %-18s has no base value\n", wl.Name, m.Name)
				bad = true
				continue
			}
			delta := (c - b) / b // positive = worse
			if m.Better == "higher" {
				delta = -delta
			}
			bound, spread := m.Bound, max(bs, cs)
			if sameSeeds && slices.Contains(exactOn[wl.Name], m.Name) {
				bound, spread = 0, 0
			}
			verdict := "same"
			switch {
			case spread > bound:
				verdict = "unresolved"
			case delta > bound:
				verdict = "worse"
			case delta < -bound:
				verdict = "better"
			}
			bad = bad || verdict == "worse" || verdict == "unresolved"
			fmt.Fprintf(w, "%-13s %-18s %14.4f %14.4f %9.4f %7.3f %7.3f  %s\n", wl.Name, m.Name, b, c, c/b, bound, spread, verdict)
		}
		// Failures may not rise at all.
		verdict := "same"
		if cur.failed() > base.failed() {
			verdict, bad = "worse", true
		}
		fmt.Fprintf(w, "%-13s %-18s %14d %14d %9s %7d %7s  %s\n", wl.Name, "failed", base.failed(), cur.failed(), "", 0, "", verdict)
	}
	return bad, nil
}
