package obsv

import (
	"fmt"
	"io"
	"sort"
)

// ServerOpStats is one wire opcode's served-request summary inside a
// ServerSnapshot.
type ServerOpStats struct {
	Op        string `json:"op"`
	Count     int64  `json:"count"`
	Errors    int64  `json:"errors"`
	WallP50NS int64  `json:"wall_p50_ns"`
	WallP99NS int64  `json:"wall_p99_ns"`
	// WallP999NS is the tail quantile an overloaded server moves first.
	WallP999NS int64   `json:"wall_p999_ns"`
	WallMeanNS float64 `json:"wall_mean_ns"`
}

// ServerSnapshot is the network server's observability snapshot, rendered
// by WriteServerPrometheus and embedded in bench reports. The server
// builds it from its own atomics and histograms; obsv only defines the
// shape and the exposition, keeping the metric names in one place with
// the store's.
type ServerSnapshot struct {
	// ConnsOpen / ConnsTotal count live and lifetime accepted connections.
	ConnsOpen  int64 `json:"conns_open"`
	ConnsTotal int64 `json:"conns_total"`
	// InFlight is the number of requests currently admitted past the
	// backpressure gate; InFlightLimit is the gate's capacity.
	InFlight      int64 `json:"in_flight"`
	InFlightLimit int64 `json:"in_flight_limit"`
	// RejectBusy / RejectShutdown / RejectProto count requests answered
	// BUSY (load shed), SHUTDOWN (drain), and connections dropped after a
	// framing error.
	RejectBusy     int64 `json:"reject_busy"`
	RejectShutdown int64 `json:"reject_shutdown"`
	RejectProto    int64 `json:"reject_proto"`
	// Timeouts counts connections closed by the idle deadline.
	Timeouts int64 `json:"timeouts"`
	// HealAttempts / HealFailures count the background auto-heal loop's
	// recovery attempts on unhealthy shards; DegradedShards gauges how
	// many shards are currently not serving (degraded or crashed).
	HealAttempts   int64 `json:"heal_attempts"`
	HealFailures   int64 `json:"heal_failures"`
	DegradedShards int64 `json:"degraded_shards"`
	// BytesIn / BytesOut are wire totals.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// Ops is the per-opcode served summary, in opcode order.
	Ops []ServerOpStats `json:"ops"`
	// Coalesce is the distribution of write-ops per connection flush — how
	// many pipelined mutations one connection submitted at once.
	Coalesce HistSnapshot `json:"coalesce"`
	// ShardCoalesce is the distribution of write-ops per per-shard slice of
	// a flush, as enqueued on one shard's writer.
	ShardCoalesce HistSnapshot `json:"shard_coalesce"`
	// PipeOccupancy is unfed since the server's per-shard pipes were
	// removed: the shard writer is the only group-commit stage, and the
	// engine's batch_size and mail_depth histograms (Recorder) describe its
	// rounds. The field stays so readers of the snapshot keep compiling.
	PipeOccupancy HistSnapshot `json:"pipe_occupancy"`
	// DedupCacheBytes gauges the reply bytes cached across all sessions
	// for exactly-once replays.
	DedupCacheBytes int64 `json:"dedup_cache_bytes"`
}

// WriteServerPrometheus renders a server snapshot in the Prometheus text
// exposition format, alongside the store metrics on the same /metrics
// endpoint.
func WriteServerPrometheus(w io.Writer, server string, s ServerSnapshot) {
	fmt.Fprintf(w, "# HELP fasp_server_connections_open Live client connections.\n# TYPE fasp_server_connections_open gauge\n")
	fmt.Fprintf(w, "fasp_server_connections_open{server=%q} %d\n", server, s.ConnsOpen)
	fmt.Fprintf(w, "# HELP fasp_server_connections_total Accepted client connections.\n# TYPE fasp_server_connections_total counter\n")
	fmt.Fprintf(w, "fasp_server_connections_total{server=%q} %d\n", server, s.ConnsTotal)

	fmt.Fprintf(w, "# HELP fasp_server_inflight_requests Requests admitted past the backpressure gate.\n# TYPE fasp_server_inflight_requests gauge\n")
	fmt.Fprintf(w, "fasp_server_inflight_requests{server=%q} %d\n", server, s.InFlight)
	fmt.Fprintf(w, "# HELP fasp_server_inflight_limit Backpressure gate capacity.\n# TYPE fasp_server_inflight_limit gauge\n")
	fmt.Fprintf(w, "fasp_server_inflight_limit{server=%q} %d\n", server, s.InFlightLimit)

	fmt.Fprintf(w, "# HELP fasp_server_rejects_total Requests refused, by reason (busy = load shed, shutdown = drain, proto = framing error).\n# TYPE fasp_server_rejects_total counter\n")
	fmt.Fprintf(w, "fasp_server_rejects_total{server=%q,reason=\"busy\"} %d\n", server, s.RejectBusy)
	fmt.Fprintf(w, "fasp_server_rejects_total{server=%q,reason=\"shutdown\"} %d\n", server, s.RejectShutdown)
	fmt.Fprintf(w, "fasp_server_rejects_total{server=%q,reason=\"proto\"} %d\n", server, s.RejectProto)

	fmt.Fprintf(w, "# HELP fasp_server_conn_timeouts_total Connections closed by the idle deadline.\n# TYPE fasp_server_conn_timeouts_total counter\n")
	fmt.Fprintf(w, "fasp_server_conn_timeouts_total{server=%q} %d\n", server, s.Timeouts)

	fmt.Fprintf(w, "# HELP fasp_server_heal_attempts_total Auto-heal recovery attempts on unhealthy shards.\n# TYPE fasp_server_heal_attempts_total counter\n")
	fmt.Fprintf(w, "fasp_server_heal_attempts_total{server=%q} %d\n", server, s.HealAttempts)
	fmt.Fprintf(w, "# HELP fasp_server_heal_failures_total Auto-heal attempts that failed (the shard stayed down).\n# TYPE fasp_server_heal_failures_total counter\n")
	fmt.Fprintf(w, "fasp_server_heal_failures_total{server=%q} %d\n", server, s.HealFailures)
	fmt.Fprintf(w, "# HELP fasp_server_degraded_shards Shards currently not serving (degraded or crashed).\n# TYPE fasp_server_degraded_shards gauge\n")
	fmt.Fprintf(w, "fasp_server_degraded_shards{server=%q} %d\n", server, s.DegradedShards)

	fmt.Fprintf(w, "# HELP fasp_server_bytes_total Wire bytes, by direction.\n# TYPE fasp_server_bytes_total counter\n")
	fmt.Fprintf(w, "fasp_server_bytes_total{server=%q,dir=\"in\"} %d\n", server, s.BytesIn)
	fmt.Fprintf(w, "fasp_server_bytes_total{server=%q,dir=\"out\"} %d\n", server, s.BytesOut)

	fmt.Fprintf(w, "# HELP fasp_server_requests_total Requests served, by opcode.\n# TYPE fasp_server_requests_total counter\n")
	for _, o := range s.Ops {
		fmt.Fprintf(w, "fasp_server_requests_total{server=%q,op=%q} %d\n", server, o.Op, o.Count)
	}
	fmt.Fprintf(w, "# HELP fasp_server_request_errors_total Requests answered with a non-OK code, by opcode.\n# TYPE fasp_server_request_errors_total counter\n")
	for _, o := range s.Ops {
		fmt.Fprintf(w, "fasp_server_request_errors_total{server=%q,op=%q} %d\n", server, o.Op, o.Errors)
	}
	fmt.Fprintf(w, "# HELP fasp_server_request_wall_ns Request service latency quantiles, by opcode.\n# TYPE fasp_server_request_wall_ns gauge\n")
	for _, o := range s.Ops {
		fmt.Fprintf(w, "fasp_server_request_wall_ns{server=%q,op=%q,quantile=\"0.5\"} %d\n", server, o.Op, o.WallP50NS)
		fmt.Fprintf(w, "fasp_server_request_wall_ns{server=%q,op=%q,quantile=\"0.99\"} %d\n", server, o.Op, o.WallP99NS)
		fmt.Fprintf(w, "fasp_server_request_wall_ns{server=%q,op=%q,quantile=\"0.999\"} %d\n", server, o.Op, o.WallP999NS)
	}

	writeHistAs(w, "fasp_server_coalesce_width", "Write operations per connection flush (pipelined coalescing).", "server", server, s.Coalesce)
	writeHistAs(w, "fasp_server_shard_coalesce_width", "Write operations per per-shard slice a flush enqueues on the engine.", "server", server, s.ShardCoalesce)

	fmt.Fprintf(w, "# HELP fasp_server_dedup_cache_bytes Reply bytes cached across sessions for exactly-once replays.\n# TYPE fasp_server_dedup_cache_bytes gauge\n")
	fmt.Fprintf(w, "fasp_server_dedup_cache_bytes{server=%q} %d\n", server, s.DedupCacheBytes)
}

// ClientSnapshot is the retrying client layer's telemetry: retries by
// trigger code and reconnect count. The client package aggregates it
// process-wide; whoever owns the /metrics endpoint renders it via
// WriteClientPrometheus.
type ClientSnapshot struct {
	// Retries maps a code label (busy, unavail, conn_reset, ...) to how
	// many operations were retried because of it.
	Retries map[string]int64 `json:"retries"`
	// Reconnects counts successful redials (session re-established and
	// unacked frames replayed).
	Reconnects int64 `json:"reconnects"`
}

// WriteClientPrometheus renders client retry telemetry in the Prometheus
// text exposition format.
func WriteClientPrometheus(w io.Writer, client string, s ClientSnapshot) {
	fmt.Fprintf(w, "# HELP fasp_client_retries_total Operations retried by the client layer, by trigger code.\n# TYPE fasp_client_retries_total counter\n")
	codes := make([]string, 0, len(s.Retries))
	for code := range s.Retries {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Fprintf(w, "fasp_client_retries_total{client=%q,code=%q} %d\n", client, code, s.Retries[code])
	}
	fmt.Fprintf(w, "# HELP fasp_client_reconnects_total Successful redial-and-replay cycles.\n# TYPE fasp_client_reconnects_total counter\n")
	fmt.Fprintf(w, "fasp_client_reconnects_total{client=%q} %d\n", client, s.Reconnects)
}
