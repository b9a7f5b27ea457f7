package obsv

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the exporter golden file")

// fixedSnapshot builds a fully deterministic snapshot (no wall clocks
// involved — histograms are filled directly).
func fixedSnapshot() (Snapshot, []ShardGauge) {
	var batch, mail, flush, fence Histogram
	for i := int64(1); i <= 16; i++ {
		batch.Observe(i)
	}
	mail.Observe(0)
	mail.Observe(3)
	flush.Observe(4)
	flush.Observe(6)
	fence.Observe(2)
	fence.Observe(2)
	snap := Snapshot{
		Ops: []OpStats{
			{Op: "put", Count: 100, WallP50NS: 900, WallP95NS: 4000, WallP99NS: 9000, WallMeanNS: 1500,
				SimP50NS: 1200, SimP95NS: 2400, SimP99NS: 3000, SimMeanNS: 1300},
			{Op: "get", Count: 50, WallP50NS: 300, WallP95NS: 700, WallP99NS: 800, WallMeanNS: 400,
				SimP50NS: 600, SimP95NS: 900, SimP99NS: 950, SimMeanNS: 650},
		},
		Events:    Counters{Flush: 10, Fence: 4, HTMCommit: 90, HTMAbort: 2, LogAppend: 12, Checkpoint: 1, Defrag: 3, Coalesce: 5, InPlaceInstall: 88},
		Batches:   9,
		SlowOps:   1,
		Seen:      159,
		BatchSize: batch.Snapshot(),
		MailDepth: mail.Snapshot(),
		FlushPer:  flush.Snapshot(),
		FencePer:  fence.Snapshot(),
	}
	gauges := []ShardGauge{
		{Shard: 0, Health: "healthy", Ops: 60, Batches: 5, SimNS: 120000, Flushes: 6, Fences: 2},
		{Shard: 1, Health: "degraded", Ops: 40, Batches: 4, SimNS: 110000, Flushes: 4, Fences: 2},
	}
	return snap, gauges
}

func TestWritePrometheusGolden(t *testing.T) {
	snap, gauges := fixedSnapshot()
	var buf bytes.Buffer
	WritePrometheus(&buf, "kv0", snap, gauges)

	path := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exporter output drifted from golden (run with -update to accept):\n--- got ---\n%s", buf.String())
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	snap, gauges := fixedSnapshot()
	var buf bytes.Buffer
	WritePrometheus(&buf, "kv0", snap, gauges)
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("own exposition does not validate: %v", err)
	}
	// The degraded shard must export as down.
	if !strings.Contains(buf.String(), `fasp_shard_healthy{store="kv0",shard="1"} 0`) {
		t.Error("degraded shard not exported as unhealthy")
	}
	if !strings.Contains(buf.String(), `fasp_shard_healthy{store="kv0",shard="0"} 1`) {
		t.Error("healthy shard not exported as up")
	}
	// Cumulative histogram: the +Inf bucket equals the count.
	if !strings.Contains(buf.String(), `fasp_batch_size_bucket{store="kv0",le="+Inf"} 16`) {
		t.Error("+Inf bucket missing or wrong")
	}
	// No shard section for a single store.
	var single bytes.Buffer
	WritePrometheus(&single, "kv0", snap, nil)
	if strings.Contains(single.String(), "fasp_shard_ops_total") {
		t.Error("shard series emitted without gauges")
	}
	if err := ValidatePrometheus(single.Bytes()); err != nil {
		t.Fatalf("single-store exposition invalid: %v", err)
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	cases := []string{
		"",                                  // no samples at all
		"# HELP only comments\n",            // comments but no samples
		"fasp_ops_total{op=\"put\"} nope\n", // non-numeric value
		"fasp_ops_total{op='put'} 1\n",      // bad label quoting
		"{} 1\n",                            // missing metric name
		"fasp ops 1\n",                      // space in name
	}
	for _, c := range cases {
		if err := ValidatePrometheus([]byte(c)); err == nil {
			t.Errorf("ValidatePrometheus(%q) accepted malformed input", c)
		}
	}
	good := "fasp_ops_total{store=\"kv0\",op=\"put\"} 42\nfasp_up 1\n"
	if err := ValidatePrometheus([]byte(good)); err != nil {
		t.Errorf("ValidatePrometheus rejected well-formed input: %v", err)
	}
}
