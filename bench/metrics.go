package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricDef names one metric. Clock says which machine the number was read
// on: "sim" is the emulated PM machine's time and counters (pmem.Clock,
// pmem.Stats — deterministic), "host" is this box (wall clock, rusage,
// procfs — noisy), "" is a plain count or ratio of the two. The host-clock
// end-to-end times and rates are at the ruler's nominal speed (ruler.go);
// what the clock itself read is in the host.*_raw layer metrics. BENCHMARK.json
// repeats name, unit and direction (and holds the bounds); bench_test.go
// keeps the two in step.
type metricDef struct {
	Name, Unit, Clock, Better string
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "host", "lower"},
	{"throughput_ops_s", "ops/s", "host", "higher"},
	{"lat_p50_us", "us", "host", "lower"},
	{"cpu_us_per_op", "us", "host", "lower"},
	{"sim_us_per_op", "us", "sim", "lower"},
	{"flushes_per_write", "count", "sim", "lower"},
	{"pm_write_amp", "ratio", "sim", "lower"},
	{"space_amp", "ratio", "", "lower"},
	{"peak_rss_mb", "MiB", "host", "lower"},
}

var perLayerDefs = []metricDef{
	// host: the box itself, by the ruler, and the end-to-end numbers as the
	// clock read them, before the ruler was applied.
	{"host.speed_rel", "ratio", "host", "higher"},
	{"host.throughput_raw_ops_s", "ops/s", "host", "higher"},
	{"host.lat_p50_raw_us", "us", "host", "lower"},
	{"host.cpu_raw_us_per_op", "us", "host", "lower"},
	{"host.setup_raw_s", "s", "host", "lower"},
	{"lat_p90_us", "us", "host", "lower"},
	// pmem: the emulated machine's events, and what emulating them costs.
	{"pmem.line_fills_per_op", "count", "sim", "lower"},
	{"pmem.cache_hit_share", "ratio", "sim", "higher"},
	{"pmem.fences_per_write", "count", "sim", "lower"},
	{"pmem.writebacks_per_write", "count", "sim", "lower"},
	{"pmem.word_stores_per_op", "count", "sim", "lower"},
	{"pmem.host_ns_per_line_op", "ns", "host", "lower"},
	{"pmem.host_share", "ratio", "host", "lower"},
	{"pmem.sim_ns_per_host_ns", "ratio", "", "higher"},
	// htm
	{"htm.inplace_commit_share", "ratio", "sim", "higher"},
	{"htm.abort_share", "ratio", "sim", "lower"},
	// btree / slotted / pager
	{"btree.search_sim_ns_op", "ns", "sim", "lower"},
	{"slotted.page_update_sim_ns_op", "ns", "sim", "lower"},
	{"pager.page_opens_per_op", "count", "", "lower"},
	{"btree.splits_per_kop", "count", "sim", "lower"},
	{"slotted.defrags_per_kop", "count", "sim", "lower"},
	{"btree.self_host_ns_op", "ns", "host", "lower"},
	// fast
	{"fast.commit_sim_ns_op", "ns", "sim", "lower"},
	{"fast.checkpoint_sim_ns_op", "ns", "sim", "lower"},
	{"fast.commit_host_ns_op", "ns", "host", "lower"},
	{"fast.log_commit_share", "ratio", "sim", "lower"},
	{"fast.log_bytes_per_write", "B", "sim", "lower"},
	{"fast.fast_sim_us_per_op", "us", "sim", "lower"},
	// wal (+nvheap): the NVWAL reference arm
	{"wal.nvwal_sim_us_per_op", "us", "sim", "lower"},
	{"wal.nvwal_flushes_per_write", "count", "sim", "lower"},
	{"wal.nvwal_host_ns_op", "ns", "host", "lower"},
	{"wal.nvwal_recover_sim_us", "us", "sim", "lower"},
	// sql / engine
	{"sql.parse_host_ns_stmt", "ns", "host", "lower"},
	{"engine.exec_host_ns_stmt", "ns", "host", "lower"},
	// fasp facade / obsv
	{"fasp.facade_host_ns_op", "ns", "host", "lower"},
	{"obsv.recorder_host_ns_op", "ns", "host", "lower"},
	{"fasp.recover_sim_us", "us", "sim", "lower"},
	{"fasp.recover_wall_ms", "ms", "host", "lower"},
	// shard
	{"shard.commit_width_mean", "count", "", "higher"},
	{"shard.mail_depth_p50", "count", "", "lower"},
	{"shard.mail_depth_p99", "count", "", "lower"},
	{"shard.sim_imbalance", "ratio", "sim", "lower"},
	{"shard.engine_cpu_us_per_op", "us", "host", "lower"},
	{"shard.get_optimistic_share", "ratio", "", "higher"},
	{"shard.get_retries_per_kget", "count", "", "lower"},
	// server
	{"server.submit_width_mean", "count", "", "higher"},
	{"server.shard_round_width_mean", "count", "", "higher"},
	{"server.pipe_occupancy_mean", "count", "", "higher"},
	{"server.busy_share", "ratio", "", "lower"},
	{"server.bytes_in_per_op", "B", "", "lower"},
	{"server.bytes_out_per_op", "B", "", "lower"},
	{"server.self_cpu_us_per_op", "us", "host", "lower"},
	{"server.dedup_cache_bytes", "B", "", "lower"},
	// wire
	{"wire.encode_ns_req", "ns", "host", "lower"},
	{"wire.decode_ns_req", "ns", "host", "lower"},
	{"wire.allocs_per_frame", "count", "host", "lower"},
	// client / generator
	{"client.rtt_p50_us", "us", "host", "lower"},
	{"client.get_p50_us", "us", "host", "lower"},
	{"client.get_p99_us", "us", "host", "lower"},
	{"client.put_p50_us", "us", "host", "lower"},
	{"client.put_p99_us", "us", "host", "lower"},
	{"client.scan_p50_us", "us", "host", "lower"},
	{"client.scan_p99_us", "us", "host", "lower"},
	{"client.lat_p99_us", "us", "host", "lower"},
	{"client.lat_p999_us", "us", "host", "lower"},
	{"client.over_limit_share", "ratio", "host", "lower"},
	{"openloop.rate_req_s", "1/s", "host", "higher"},
	{"openloop.lat_p50_us", "us", "host", "lower"},
	{"openloop.lat_p99_us", "us", "host", "lower"},
	{"openloop.over_limit_share", "ratio", "host", "lower"},
	{"loadgen.late_p99_us", "us", "host", "lower"},
	{"loadgen.max_rate_req_s", "1/s", "host", "higher"},
	{"loadgen.cpu_us_per_req", "us", "host", "lower"},
	// runtime / trace
	{"runtime.allocs_per_op", "count", "host", "lower"},
	{"runtime.gc_cycles", "count", "host", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "host", "lower"},
	{"runtime.gomaxprocs", "count", "host", "higher"},
	{"trace.overhead_share", "ratio", "host", "lower"},
	// the oracle's verdict as a share; the contract's `failed` is its count
	{"oracle.fail_share", "ratio", "", "lower"},
}

// value is one reported metric. IQR and N describe the slices the median
// was taken over (wall-clock metrics only).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
	IQR   float64 `json:"iqr,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
	Slices    []sliceOut       `json:"slices,omitempty"`
	Env       env              `json:"env"`

	latP90   float64 // at the ruler's speed; set by wallMetrics
	setupRaw float64 // as the clock read it; set by setupTimes.emit
}

func newResult(workload string, seed int64, seconds float64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		EndToEnd: map[string]value{}, PerLayer: map[string]value{}, Env: readEnv(),
	}
}

func findDef(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

func set(m map[string]value, defs []metricDef, name string, s summary) {
	if _, dup := m[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	d := findDef(defs, name)
	m[name] = value{Value: s.Median, Unit: d.Unit, Clock: d.Clock, IQR: s.IQR, N: s.N}
}

// e2e records an end-to-end metric; layer a per-layer one. A name that is
// not declared, or set twice, is a bug in the benchmark and panics.
func (r *result) e2e(name string, s summary) { set(r.EndToEnd, endToEndDefs, name, s) }
func (r *result) layer(name string, v float64) {
	set(r.PerLayer, perLayerDefs, name, summary{Median: v})
}

// seal checks every end-to-end metric was measured and gives every layer
// metric the workload does not cross the value 0: the layer did no work.
func (r *result) seal() {
	for _, d := range endToEndDefs {
		if _, ok := r.EndToEnd[d.Name]; !ok {
			panic("bench: workload " + r.Workload + " did not measure " + d.Name)
		}
	}
	if !r.Traced {
		r.PerLayer = nil
		return
	}
	r.layer("oracle.fail_share", ratio(r.Failed, r.Attempted))
	r.layer("host.speed_rel", r.rawMedian(func(s sliceOut) float64 { return 1 / s.Slow }))
	r.layer("host.throughput_raw_ops_s", r.rawMedian(func(s sliceOut) float64 { return s.Thr }))
	r.layer("host.lat_p50_raw_us", r.rawMedian(func(s sliceOut) float64 { return s.P50 }))
	r.layer("host.cpu_raw_us_per_op", r.rawMedian(func(s sliceOut) float64 { return s.CPU }))
	r.layer("host.setup_raw_s", r.setupRaw)
	r.layer("lat_p90_us", r.latP90)
	for _, d := range perLayerDefs {
		if _, ok := r.PerLayer[d.Name]; !ok {
			r.PerLayer[d.Name] = value{Unit: d.Unit, Clock: d.Clock}
		}
	}
}

// print writes every metric by name with its unit and clock, then — as the
// last line — the driver's JSON object: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g traced=%v correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Correct, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	if len(r.Slices) > 0 {
		fmt.Fprintf(w, "   host: %.3f of the ruler's nominal speed; as the clock read them: %.0f ops/s, p50 %.3f us, %.3f CPU us/op, set-up %.4f s\n",
			r.rawMedian(func(s sliceOut) float64 { return 1 / s.Slow }), r.rawMedian(func(s sliceOut) float64 { return s.Thr }),
			r.rawMedian(func(s sliceOut) float64 { return s.P50 }), r.rawMedian(func(s sliceOut) float64 { return s.CPU }), r.setupRaw)
	}
	table := func(defs []metricDef, m map[string]value) {
		for _, d := range defs {
			v, ok := m[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("   %-32s %14.4f %-6s %-4s", d.Name, v.Value, v.Unit, v.Clock)
			if v.N > 0 {
				line += fmt.Sprintf("  median of %d slices, IQR %.4f", v.N, v.IQR)
			}
			fmt.Fprintln(w, line)
		}
	}
	table(endToEndDefs, r.EndToEnd)
	table(perLayerDefs, r.PerLayer)
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]lastValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]lastValue{}}
	src := r.EndToEnd
	if r.Traced {
		src = r.PerLayer
	}
	for k, v := range src {
		last.Metrics[k] = lastValue{v.Value, v.Unit}
	}
	b, err := json.Marshal(last)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

type lastValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what -out writes and -compare reads: runs appended in the
// order they were made, each carrying its environment.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendResults adds runs to the file at path, creating it if absent.
func appendResults(path string, runs []*result) error {
	f, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
