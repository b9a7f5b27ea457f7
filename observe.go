package fasp

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"

	"fasp/internal/fast"
	"fasp/internal/obsv"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/shard"
	"fasp/internal/wal"
)

// ErrBadShard reports a shard index outside [0, Shards()) passed to a
// per-shard accessor (ShardStats, ShardSystem, ShardStore, ShardScan,
// Heal) or to SubmitShard.
var ErrBadShard = shard.ErrBadShard

// ErrClosed reports a write operation submitted to a KV after Close.
var ErrClosed = shard.ErrClosed

// Metrics is a KV's observability snapshot: per-op latency distributions
// (wall and simulated ns), commit-path event totals, group-commit batch
// shape, and slow-op counts. See KV.Metrics.
type Metrics = obsv.Snapshot

// OpMetrics is one op kind's latency summary inside Metrics.
type OpMetrics = obsv.OpStats

// TraceSample is one sampled transaction: latency pair plus its full
// commit-path event counts. See KV.TraceSample and KV.SlowOps.
type TraceSample = obsv.TraceSample

// newRecorder builds the obsv recorder OpenKV wires through the store
// (nil when metrics are disabled — every hook is nil-safe, so disabled
// metrics cost one pointer test per operation).
func newRecorder(opts Options) *obsv.Recorder {
	if opts.DisableMetrics {
		return nil
	}
	return obsv.New(obsv.Config{})
}

// storeCounters bridges the simulated machine's existing commit-path
// counters into one obsv.Counters snapshot: clflush and fences from the
// PM layer, HTM commits/aborts, slot-header log appends, page
// defragmentations, free-list coalesces, in-place slot-header installs and
// cell relocations from the FAST/FAST+ store, WAL frames and checkpoints
// from the baselines. The
// events are counted once, where they happen — the observability layer
// only reads the deltas between two snapshots. Allocation-free.
func storeCounters(sys *pmem.System, arena *pmem.Arena, st pager.Store) obsv.Counters {
	c := obsv.Counters{
		Flush: arena.Stats().FlushCalls,
		Fence: sys.Fences(),
	}
	switch s := st.(type) {
	case *fast.Store:
		h := s.HTMStats()
		c.HTMCommit = h.Commits
		c.HTMAbort = h.CapacityAborts + h.ExplicitAborts + h.SpuriousAborts
		fs := s.Stats()
		c.LogAppend = fs.LoggedFrames
		c.Checkpoint = fs.LogCommits
		c.SingleLeaf = fs.SingleLeaf
		c.Defrag = fs.Defrags
		c.Coalesce = fs.Coalesces
		c.InPlaceInstall = fs.InPlaceInstalls
		c.Relocate = fs.Relocations
	case *wal.Store:
		ws := s.Stats()
		c.LogAppend = ws.WALFrames
		c.Checkpoint = ws.Checkpoints
		c.SingleLeaf = ws.SingleLeaf
	}
	return c
}

// Metrics returns the store's observability snapshot. It is a cold-path
// aggregation (allocates); the underlying recording is lock-free and
// allocation-free. A store opened with DisableMetrics returns a zero
// snapshot.
func (kv *KV) Metrics() Metrics { return kv.rec.Snapshot() }

// TraceSample returns the sampled-transaction ring (every Nth transaction
// plus every slow one), oldest first — the full commit-path event counts
// of each sampled transaction.
func (kv *KV) TraceSample() []TraceSample { return kv.rec.TraceSamples() }

// SlowOps returns the slow-op log: every operation over 1 ms of wall time,
// oldest first, bounded by the ring size.
func (kv *KV) SlowOps() []TraceSample { return kv.rec.SlowSamples() }

// Registry of live KVs for the exporter. OpenKV registers, Close
// unregisters; ServeMetrics renders every registered store.
var (
	regMu     sync.Mutex
	regSeq    int
	regKVs    = map[string]*KV{}
	regSrcSeq int
	regSrcs   = map[int]func(io.Writer){}

	expvarOnce sync.Once
)

// RegisterPromSource adds an extra producer to the /metrics endpoint:
// fn is invoked on every scrape, after the KV sections, and must write
// Prometheus text exposition. Subsystems layered on top of the store (the
// network server) export through it without the facade knowing their
// metric set. The returned function unregisters.
func RegisterPromSource(fn func(io.Writer)) (unregister func()) {
	regMu.Lock()
	defer regMu.Unlock()
	id := regSrcSeq
	regSrcSeq++
	regSrcs[id] = fn
	return func() {
		regMu.Lock()
		defer regMu.Unlock()
		delete(regSrcs, id)
	}
}

// promSources snapshots the registered extra producers in a stable order.
func promSources() []func(io.Writer) {
	regMu.Lock()
	defer regMu.Unlock()
	ids := make([]int, 0, len(regSrcs))
	for id := range regSrcs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fns := make([]func(io.Writer), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, regSrcs[id])
	}
	return fns
}

func registerKV(kv *KV) {
	regMu.Lock()
	defer regMu.Unlock()
	kv.regName = fmt.Sprintf("kv%d", regSeq)
	regSeq++
	regKVs[kv.regName] = kv
}

func unregisterKV(kv *KV) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(regKVs, kv.regName)
}

// registeredKVs snapshots the registry in a stable order.
func registeredKVs() (names []string, kvs []*KV) {
	regMu.Lock()
	defer regMu.Unlock()
	for name := range regKVs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		kvs = append(kvs, regKVs[name])
	}
	return names, kvs
}

// MetricsServer is a running metrics endpoint; see ServeMetrics.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (useful with ":0").
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close shuts the endpoint down.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// ServeMetrics starts an HTTP metrics endpoint on addr serving every KV
// opened by this process (and not yet closed):
//
//	/metrics     Prometheus text format: per-op latency quantiles (wall
//	             and simulated), commit-path event totals, batch-size and
//	             queue-depth histograms, per-shard health/throughput.
//	/debug/vars  expvar JSON; the "fasp" variable holds each store's full
//	             Metrics snapshot.
//
// Pass ":0" to bind an ephemeral port (Addr reports it). The returned
// server runs until Close.
func ServeMetrics(addr string) (*MetricsServer, error) {
	return serveMetrics(addr, false)
}

// ServeMetricsPprof is ServeMetrics plus the net/http/pprof profiling
// handlers under /debug/pprof/ (CPU, heap, goroutine, mutex, block,
// trace). Profiling exposure is opt-in per endpoint: plain ServeMetrics
// never mounts these handlers.
func ServeMetricsPprof(addr string) (*MetricsServer, error) {
	return serveMetrics(addr, true)
}

func serveMetrics(addr string, withPprof bool) (*MetricsServer, error) {
	expvarOnce.Do(func() {
		expvar.Publish("fasp", expvar.Func(func() any {
			names, kvs := registeredKVs()
			out := make(map[string]Metrics, len(kvs))
			for i, kv := range kvs {
				out[names[i]] = kv.Metrics()
			}
			return out
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fasp: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		names, kvs := registeredKVs()
		for i, kv := range kvs {
			obsv.WritePrometheus(w, names[i], kv.Metrics(), kv.eng.Gauges())
		}
		for _, fn := range promSources() {
			fn(w)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return &MetricsServer{ln: ln, srv: srv}, nil
}
