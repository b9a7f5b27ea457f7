package server

import (
	"sync/atomic"

	"fasp/internal/obsv"
	"fasp/internal/server/wire"
)

// metrics is the server's own counter set, exported through the facade's
// /metrics endpoint as fasp_server_* series (obsv.WriteServerPrometheus).
// Everything is atomics and lock-free histograms: the request hot path
// never takes a lock for observability.
type metrics struct {
	connsOpen  atomic.Int64
	connsTotal atomic.Int64

	rejBusy     atomic.Int64
	rejShutdown atomic.Int64
	rejProto    atomic.Int64
	timeouts    atomic.Int64 // connections closed by IdleTimeout

	healAttempts atomic.Int64
	healFailures atomic.Int64

	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	opCount [wire.NumOps]atomic.Int64
	opErr   [wire.NumOps]atomic.Int64
	opWall  [wire.NumOps]obsv.Histogram

	// coalesce observes the write-op count of every connection flush and
	// shardCoalesce that of each per-shard part the engine splits it into.
	coalesce      obsv.Histogram
	shardCoalesce obsv.Histogram
	// dedupBytes gauges cached dedup replies across sessions.
	dedupBytes atomic.Int64
}

// snapshot renders the counters; inFlight/limit come from the gate.
func (m *metrics) snapshot(inFlight, limit int) obsv.ServerSnapshot {
	s := obsv.ServerSnapshot{
		ConnsOpen:       m.connsOpen.Load(),
		ConnsTotal:      m.connsTotal.Load(),
		InFlight:        int64(inFlight),
		InFlightLimit:   int64(limit),
		RejectBusy:      m.rejBusy.Load(),
		RejectShutdown:  m.rejShutdown.Load(),
		RejectProto:     m.rejProto.Load(),
		Timeouts:        m.timeouts.Load(),
		HealAttempts:    m.healAttempts.Load(),
		HealFailures:    m.healFailures.Load(),
		BytesIn:         m.bytesIn.Load(),
		BytesOut:        m.bytesOut.Load(),
		Coalesce:        m.coalesce.Snapshot(),
		ShardCoalesce:   m.shardCoalesce.Snapshot(),
		DedupCacheBytes: m.dedupBytes.Load(),
	}
	for op := byte(1); op < wire.NumOps; op++ {
		n := m.opCount[op].Load()
		if n == 0 {
			continue
		}
		h := m.opWall[op].Snapshot()
		s.Ops = append(s.Ops, obsv.ServerOpStats{
			Op:         wire.OpName(op),
			Count:      n,
			Errors:     m.opErr[op].Load(),
			WallP50NS:  h.Quantile(0.5),
			WallP99NS:  h.Quantile(0.99),
			WallP999NS: h.Quantile(0.999),
			WallMeanNS: h.Mean(),
		})
	}
	return s
}
