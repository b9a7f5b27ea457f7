package obsv

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// ShardGauge is one shard's health/throughput gauge set for the exporter.
// The engine fills it from its per-shard state.
type ShardGauge struct {
	Shard   int
	Health  string
	Ops     int64
	Batches int64
	SimNS   int64
	Flushes int64
	Fences  int64
	// Scheme is the shard's commit scheme name ("" when unknown).
	Scheme string
}

// eventNames labels Counters fields for the events_total metric, in
// Counters.vec order.
var eventNames = [numEvents]string{"clflush", "fence", "htm_commit", "htm_abort",
	"log_append", "checkpoint", "single_leaf", "defrag", "coalesce", "inplace_install", "relocate"}

// WritePrometheus renders one store's snapshot and shard gauges in the
// Prometheus text exposition format (version 0.0.4). Quantiles are
// exported as gauges (they come from the mergeable log-bucket histograms);
// batch-size and queue-depth distributions are exported as native
// Prometheus histograms with power-of-two le bounds.
func WritePrometheus(w io.Writer, store string, snap Snapshot, shards []ShardGauge) {
	fmt.Fprintf(w, "# HELP fasp_ops_total Operations observed, by kind.\n# TYPE fasp_ops_total counter\n")
	for _, o := range snap.Ops {
		fmt.Fprintf(w, "fasp_ops_total{store=%q,op=%q} %d\n", store, o.Op, o.Count)
	}

	fmt.Fprintf(w, "# HELP fasp_op_wall_ns Wall-clock latency quantiles per op kind.\n# TYPE fasp_op_wall_ns gauge\n")
	for _, o := range snap.Ops {
		fmt.Fprintf(w, "fasp_op_wall_ns{store=%q,op=%q,quantile=\"0.5\"} %d\n", store, o.Op, o.WallP50NS)
		fmt.Fprintf(w, "fasp_op_wall_ns{store=%q,op=%q,quantile=\"0.95\"} %d\n", store, o.Op, o.WallP95NS)
		fmt.Fprintf(w, "fasp_op_wall_ns{store=%q,op=%q,quantile=\"0.99\"} %d\n", store, o.Op, o.WallP99NS)
	}

	fmt.Fprintf(w, "# HELP fasp_op_sim_ns Simulated-time latency quantiles per op kind.\n# TYPE fasp_op_sim_ns gauge\n")
	for _, o := range snap.Ops {
		fmt.Fprintf(w, "fasp_op_sim_ns{store=%q,op=%q,quantile=\"0.5\"} %d\n", store, o.Op, o.SimP50NS)
		fmt.Fprintf(w, "fasp_op_sim_ns{store=%q,op=%q,quantile=\"0.95\"} %d\n", store, o.Op, o.SimP95NS)
		fmt.Fprintf(w, "fasp_op_sim_ns{store=%q,op=%q,quantile=\"0.99\"} %d\n", store, o.Op, o.SimP99NS)
	}

	fmt.Fprintf(w, "# HELP fasp_events_total Commit-path architectural events.\n# TYPE fasp_events_total counter\n")
	for i, v := range snap.Events.vec() {
		fmt.Fprintf(w, "fasp_events_total{store=%q,event=%q} %d\n", store, eventNames[i], v)
	}

	fmt.Fprintf(w, "# HELP fasp_batches_total Group-commit transactions.\n# TYPE fasp_batches_total counter\n")
	fmt.Fprintf(w, "fasp_batches_total{store=%q} %d\n", store, snap.Batches)
	fmt.Fprintf(w, "# HELP fasp_slow_ops_total Operations over the slow-op threshold.\n# TYPE fasp_slow_ops_total counter\n")
	fmt.Fprintf(w, "fasp_slow_ops_total{store=%q} %d\n", store, snap.SlowOps)

	fmt.Fprintf(w, "# HELP fasp_get_reads_total Get operations by read path.\n# TYPE fasp_get_reads_total counter\n")
	fmt.Fprintf(w, "fasp_get_reads_total{store=%q,path=\"optimistic\"} %d\n", store, snap.GetOptimistic)
	fmt.Fprintf(w, "fasp_get_reads_total{store=%q,path=\"locked\"} %d\n", store, snap.GetLocked)
	fmt.Fprintf(w, "# HELP fasp_get_retries_total Gets that queued behind a commit holding their shard's read gate.\n# TYPE fasp_get_retries_total counter\n")
	fmt.Fprintf(w, "fasp_get_retries_total{store=%q} %d\n", store, snap.GetRetries)

	writeHist(w, "fasp_batch_size", "Operations per group commit.", store, snap.BatchSize)
	writeHist(w, "fasp_mailbox_depth", "Queued requests at mailbox drain.", store, snap.MailDepth)
	writeHist(w, "fasp_clflush_per_txn", "clflush instructions per transaction.", store, snap.FlushPer)
	writeHist(w, "fasp_fence_per_txn", "Memory fences per transaction.", store, snap.FencePer)

	if len(shards) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP fasp_shard_ops_total Operations applied per shard.\n# TYPE fasp_shard_ops_total counter\n")
	for _, g := range shards {
		fmt.Fprintf(w, "fasp_shard_ops_total{store=%q,shard=\"%d\"} %d\n", store, g.Shard, g.Ops)
	}
	fmt.Fprintf(w, "# HELP fasp_shard_batches_total Group commits per shard.\n# TYPE fasp_shard_batches_total counter\n")
	for _, g := range shards {
		fmt.Fprintf(w, "fasp_shard_batches_total{store=%q,shard=\"%d\"} %d\n", store, g.Shard, g.Batches)
	}
	fmt.Fprintf(w, "# HELP fasp_shard_sim_ns Simulated clock per shard.\n# TYPE fasp_shard_sim_ns gauge\n")
	for _, g := range shards {
		fmt.Fprintf(w, "fasp_shard_sim_ns{store=%q,shard=\"%d\"} %d\n", store, g.Shard, g.SimNS)
	}
	fmt.Fprintf(w, "# HELP fasp_shard_flushes_total clflush instructions per shard.\n# TYPE fasp_shard_flushes_total counter\n")
	for _, g := range shards {
		fmt.Fprintf(w, "fasp_shard_flushes_total{store=%q,shard=\"%d\"} %d\n", store, g.Shard, g.Flushes)
	}
	fmt.Fprintf(w, "# HELP fasp_shard_fences_total Memory fences per shard.\n# TYPE fasp_shard_fences_total counter\n")
	for _, g := range shards {
		fmt.Fprintf(w, "fasp_shard_fences_total{store=%q,shard=\"%d\"} %d\n", store, g.Shard, g.Fences)
	}
	fmt.Fprintf(w, "# HELP fasp_shard_healthy Shard serving state (1 healthy, 0 crashed/degraded).\n# TYPE fasp_shard_healthy gauge\n")
	for _, g := range shards {
		up := 0
		if g.Health == "healthy" {
			up = 1
		}
		fmt.Fprintf(w, "fasp_shard_healthy{store=%q,shard=\"%d\"} %d\n", store, g.Shard, up)
	}
	fmt.Fprintf(w, "# HELP fasp_shard_scheme Live commit scheme per shard (1 for the active scheme label).\n# TYPE fasp_shard_scheme gauge\n")
	for _, g := range shards {
		if g.Scheme == "" {
			continue
		}
		fmt.Fprintf(w, "fasp_shard_scheme{store=%q,shard=\"%d\",scheme=%q} 1\n", store, g.Shard, g.Scheme)
	}
}

// writeHist renders one HistSnapshot as a Prometheus histogram with
// cumulative power-of-two buckets, labelled store="..." (writeHistAs
// chooses the label).
func writeHist(w io.Writer, name, help, store string, h HistSnapshot) {
	writeHistAs(w, name, help, "store", store, h)
}

// writeHistAs is writeHist with a caller-chosen label name, so server-side
// histograms can carry server="..." instead of store="...".
func writeHistAs(w io.Writer, name, help, label, val string, h HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	last := -1
	for b := range h.Counts {
		if h.Counts[b] != 0 {
			last = b
		}
	}
	var cum int64
	for b := 0; b <= last; b++ {
		cum += h.Counts[b]
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%d\"} %d\n", name, label, val, BucketUpper(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, val, h.Count)
	fmt.Fprintf(w, "%s_sum{%s=%q} %d\n", name, label, val, h.Sum)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, val, h.Count)
}

var (
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(\S+)$`)
	promLabels = regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\}$`)
)

// ValidatePrometheus parses a text-format exposition and reports the first
// malformed line (or an empty exposition). It checks line syntax, label
// syntax, and numeric sample values — enough for the CI smoke step to
// assert a scrape is well-formed without a Prometheus dependency.
func ValidatePrometheus(data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	samples := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("obsv: line %d: malformed sample %q", lineNo, line)
		}
		if m[2] != "" && !promLabels.MatchString(m[2]) {
			return fmt.Errorf("obsv: line %d: malformed labels %q", lineNo, m[2])
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			return fmt.Errorf("obsv: line %d: bad value %q", lineNo, m[3])
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return errors.New("obsv: exposition contains no samples")
	}
	return nil
}
