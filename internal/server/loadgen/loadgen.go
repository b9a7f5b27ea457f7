// Package loadgen drives a faspserver with many concurrent pipelined
// connections — the bench/ server workloads and the chaos soak's clients.
// It reports acked throughput, typed reject counts, and request latency
// quantiles (p50/p99/p999) from a shared lock-free histogram.
package loadgen

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fasp/internal/obsv"
	"fasp/internal/server/client"
	"fasp/internal/server/wire"
)

// Config shapes one load-generation run.
type Config struct {
	// Addr is the server address.
	Addr string
	// Conns is the concurrent connection count (default 1).
	Conns int
	// Duration bounds the send phase; outstanding responses are drained
	// after it (default 2s).
	Duration time.Duration
	// Pipeline is the requests kept in flight per connection (default 4).
	Pipeline int
	// ValueSize is the PUT value size in bytes (default 64).
	ValueSize int
	// KeySpace is the random key domain size (default 100_000).
	KeySpace int
	// BatchSize > 1 sends BATCH requests of that many puts instead of
	// single PUTs.
	BatchSize int
	// ReadFrac is the GET fraction in [0, 1].
	ReadFrac float64
	// Seed decorrelates workers deterministically (worker i uses Seed+i).
	Seed int64
	// Prefix namespaces the keys.
	Prefix string

	// Retry dials session-bound retrying clients (client.DialRetry): the
	// workers survive injected connection kills and server restarts by
	// reconnecting and replaying unacked requests under the server's dedup
	// window. Policy tunes it (each worker gets its own session id).
	Retry  bool
	Policy client.RetryPolicy
	// UniqueKeys switches the key stream from a random reuse domain to a
	// never-repeating per-worker sequence ("prefix-worker-seq"), making
	// each acked PUT an individually checkable durability obligation for
	// the chaos soak's acked-prefix oracle.
	UniqueKeys bool
	// Record, when set, observes every acked write, called after its OK
	// verdict arrives (batch puts report each acked op). The chaos soak
	// collects the acked set to audit against the recovered store. The
	// slices must not be mutated by the callee; key is freshly allocated,
	// val is the worker's long-lived value buffer.
	Record func(key, val []byte)
}

func (c *Config) fill() {
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 4
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 64
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 100_000
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.Prefix == "" {
		c.Prefix = "lg"
	}
}

// Result is one run's aggregate outcome. Busy and Shutdown count typed
// protocol-level sheds (the connection survived them); ConnDrops counts
// connections that died mid-run — the overload acceptance criterion is
// Busy > 0 with ConnDrops == 0.
type Result struct {
	Conns     int           `json:"conns"`
	Pipeline  int           `json:"pipeline"`
	BatchSize int           `json:"batch_size"`
	Duration  time.Duration `json:"duration_ns"`

	Requests int64 `json:"requests"`
	OpsAcked int64 `json:"ops_acked"`
	Busy     int64 `json:"busy"`
	Shutdown int64 `json:"shutdown"`
	// Unavail counts requests refused by a degraded shard (typed, like
	// Busy: the server guarantees they were not applied).
	Unavail int64 `json:"unavail"`
	Errors  int64 `json:"errors"`

	DialFailures int64 `json:"dial_failures"`
	ConnDrops    int64 `json:"conn_drops"`
	// Reconnects / Retries aggregate the retrying clients' repair cycles
	// and BUSY/UNAVAIL re-submissions (zero without Config.Retry).
	Reconnects int64 `json:"reconnects"`
	Retries    int64 `json:"retries"`

	ThroughputOps float64 `json:"throughput_ops_per_sec"`

	LatP50NS  int64   `json:"lat_p50_ns"`
	LatP99NS  int64   `json:"lat_p99_ns"`
	LatP999NS int64   `json:"lat_p999_ns"`
	LatMeanNS float64 `json:"lat_mean_ns"`
}

// counters are the run's shared atomics.
type counters struct {
	requests   atomic.Int64
	acked      atomic.Int64
	busy       atomic.Int64
	shutdown   atomic.Int64
	unavail    atomic.Int64
	errors     atomic.Int64
	dialFail   atomic.Int64
	drops      atomic.Int64
	reconnects atomic.Int64
	retries    atomic.Int64
	lat        obsv.Histogram
}

// Run drives the configured workload and blocks until every connection
// drains or dies.
func Run(cfg Config) (Result, error) {
	cfg.fill()
	var c counters
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(cfg, id, deadline, &c)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	h := c.lat.Snapshot()
	res := Result{
		Conns:        cfg.Conns,
		Pipeline:     cfg.Pipeline,
		BatchSize:    cfg.BatchSize,
		Duration:     elapsed,
		Requests:     c.requests.Load(),
		OpsAcked:     c.acked.Load(),
		Busy:         c.busy.Load(),
		Shutdown:     c.shutdown.Load(),
		Unavail:      c.unavail.Load(),
		Errors:       c.errors.Load(),
		DialFailures: c.dialFail.Load(),
		ConnDrops:    c.drops.Load(),
		Reconnects:   c.reconnects.Load(),
		Retries:      c.retries.Load(),
		LatP50NS:     h.Quantile(0.5),
		LatP99NS:     h.Quantile(0.99),
		LatP999NS:    h.Quantile(0.999),
		LatMeanNS:    h.Mean(),
	}
	if s := elapsed.Seconds(); s > 0 {
		res.ThroughputOps = float64(res.OpsAcked) / s
	}
	if cfg.Conns > 0 && res.DialFailures == int64(cfg.Conns) {
		return res, fmt.Errorf("loadgen: all %d dials failed", cfg.Conns)
	}
	return res, nil
}

// slot tracks one in-flight request for latency and op accounting; keys
// holds a write's keys so the ack can be recorded for the chaos oracle.
type slot struct {
	t0   time.Time
	ops  int64
	keys [][]byte
}

func worker(cfg Config, id int, deadline time.Time, c *counters) {
	var cl *client.Client
	var err error
	if cfg.Retry {
		pol := cfg.Policy
		pol.SessionID = 0 // each worker is its own dedup session
		cl, err = client.DialRetry(cfg.Addr, pol)
	} else {
		cl, err = client.Dial(cfg.Addr)
	}
	if err != nil {
		c.dialFail.Add(1)
		return
	}
	defer func() {
		c.reconnects.Add(cl.Reconnects())
		c.retries.Add(cl.Retries())
		cl.Close()
	}()

	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	val := make([]byte, cfg.ValueSize)
	rng.Read(val)
	seq := 0
	key := func() []byte {
		if cfg.UniqueKeys {
			seq++
			return []byte(fmt.Sprintf("%s-%03d-%08d", cfg.Prefix, id, seq))
		}
		return []byte(fmt.Sprintf("%s-%08d", cfg.Prefix, rng.Intn(cfg.KeySpace)))
	}
	ops := make([]wire.BatchOp, cfg.BatchSize)

	// Windowed pipeline: keep cfg.Pipeline requests in flight, receive
	// one, send one. After the deadline, drain the window.
	var window []slot
	enqueue := func() {
		s := slot{t0: time.Now(), ops: 1}
		switch {
		case cfg.ReadFrac > 0 && rng.Float64() < cfg.ReadFrac:
			cl.QueueGet(key())
		case cfg.BatchSize > 1:
			for i := range ops {
				k := key()
				ops[i] = wire.BatchOp{Kind: wire.KindPut, Key: k, Val: val}
				if cfg.Record != nil {
					s.keys = append(s.keys, k)
				}
			}
			cl.QueueBatch(ops)
			s.ops = int64(cfg.BatchSize)
		default:
			k := key()
			cl.QueuePut(k, val)
			if cfg.Record != nil {
				s.keys = append(s.keys, k)
			}
		}
		window = append(window, s)
		c.requests.Add(1)
	}
	recvOne := func() bool {
		code, payload, err := cl.Recv()
		if err != nil {
			c.drops.Add(1)
			return false
		}
		s := window[0]
		copy(window, window[1:])
		window = window[:len(window)-1]
		c.lat.Observe(time.Since(s.t0).Nanoseconds())
		switch code {
		case wire.CodeOK:
			if s.ops > 1 {
				// BATCH reply: count per-op verdicts.
				if codes, perr := wire.ParseBatchReply(payload, nil); perr == nil {
					okN := int64(0)
					for i, bc := range codes {
						if bc == wire.CodeOK {
							okN++
							if cfg.Record != nil && i < len(s.keys) {
								cfg.Record(s.keys[i], val)
							}
						}
					}
					c.acked.Add(okN)
				} else {
					c.errors.Add(1)
				}
				return true
			}
			c.acked.Add(1)
			if cfg.Record != nil && len(s.keys) > 0 {
				cfg.Record(s.keys[0], val)
			}
		case wire.CodeNotFound:
			c.acked.Add(1)
		case wire.CodeBusy:
			c.busy.Add(1)
		case wire.CodeShutdown:
			c.shutdown.Add(1)
		case wire.CodeUnavail:
			c.unavail.Add(1)
		default:
			c.errors.Add(1)
		}
		return true
	}

	for time.Now().Before(deadline) {
		for len(window) < cfg.Pipeline {
			enqueue()
		}
		if err := cl.Flush(); err != nil {
			c.drops.Add(1)
			return
		}
		// Drain half the window before refilling, so requests leave in
		// multi-frame bursts (one flush each) instead of one at a time —
		// the server coalesces each burst into one engine submission.
		for len(window) > cfg.Pipeline/2 {
			if !recvOne() {
				return
			}
		}
	}
	for len(window) > 0 {
		if !recvOne() {
			return
		}
	}
}
