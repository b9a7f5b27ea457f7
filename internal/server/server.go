// Package server is the fasp network service layer: a TCP daemon speaking
// the internal/server/wire protocol over a fasp.KV.
//
// Each accepted connection gets one reader goroutine. The reader decodes
// every frame already buffered on its connection and defers the write
// operations (PUT/DEL/BATCH) into one pending set, which it flushes the
// moment it would otherwise block — on a read request, on the
// backpressure cap, or when the socket has no more complete frames. A
// flush hands the set to the engine in request order as one KV.Submit,
// each request one atomic unit; the engine splits it by shard, queues
// every shard's part and waits for all of their verdicts. The server has
// no commit stage of its own:
// pipelining batches within a connection, and on each shard whichever
// waiting connection holds the shard lock gathers whatever all connections
// have enqueued into one failure-atomic group commit while the next round
// queues behind it. A slow shard delays only the connections that touched
// it, and one whose queue fills answers a typed retryable BUSY. Responses are
// emitted strictly in request order (the protocol carries no request ids),
// and no response is written before its write is durable in a committed
// transaction — an OK ack is a durability guarantee the crash-under-load
// test holds the server to.
//
// Backpressure is a global in-flight request gate: a request arriving with
// the gate full is answered with a typed retryable BUSY response in its
// pipeline slot; the connection itself is never dropped. Draining
// (Shutdown) stops the listener, answers new requests with SHUTDOWN,
// finishes every in-flight batch, and closes connections only after their
// final responses are flushed.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fasp"
	"fasp/internal/obsv"
	"fasp/internal/server/wire"
)

// Fixed bounds of a Server.
const (
	// maxCoalesce flushes a connection's pending writes when this many ops
	// have been deferred.
	maxCoalesce = 1024
	// healBackoffMax caps the per-shard heal backoff.
	healBackoffMax = 500 * time.Millisecond
	// dedupWindow bounds each session's write-dedup window, in sequence
	// tokens. See session.go.
	dedupWindow = 4096
	// maxSessions bounds the session table.
	maxSessions = 1024
)

// Config tunes a Server. The zero value serves with the defaults below.
type Config struct {
	// Name labels the server's metrics series (default "faspserver").
	Name string
	// MaxInFlight caps requests admitted concurrently across all
	// connections (default 1024). At the cap, further requests are answered
	// BUSY until slots free — load is shed per request, never per
	// connection.
	MaxInFlight int
	// MaxFrame bounds one request frame (default wire.DefaultMaxFrame).
	MaxFrame int
	// ScanLimit is the page size (pairs) of a SCAN with Limit 0, and the
	// hard per-reply cap (default 256).
	ScanLimit int
	// NoMetricsSource skips registering with the fasp /metrics endpoint
	// (tests that assert exact scrape contents).
	NoMetricsSource bool
	// IdleTimeout closes a connection whose blocking read stays idle this
	// long (0 = never). Expiry is answered with a typed CodeTimeout frame
	// before the close; nothing is lost — the connection had no request in
	// flight, so a client may simply reconnect.
	IdleTimeout time.Duration
	// WriteTimeout bounds one response flush to the socket (0 = never). A
	// peer that stops reading can otherwise wedge a connection goroutine
	// in the kernel send buffer forever.
	WriteTimeout time.Duration
	// WrapConn, when set, wraps every accepted connection before it is
	// served — the fault-injection seam (faultx.Injector.WrapConn).
	WrapConn func(net.Conn) net.Conn
	// AutoHeal starts a background loop that re-runs recovery on shards
	// that stop serving (writer fault → degraded), with capped exponential
	// backoff + jitter per shard. Off by default: a store whose shard
	// stays down without explanation is a diagnosable condition, and tests
	// of the UNAVAIL path rely on degradation being sticky.
	AutoHeal bool
	// HealInterval is the auto-heal scan cadence and first-retry backoff
	// (default 10ms). It also sizes the retry-after hint carried by
	// UNAVAIL responses.
	HealInterval time.Duration
	// DedupCacheBytes bounds the reply bytes one session may cache for
	// exactly-once replays (default 256 KiB; -1 = unbounded). Over budget,
	// the oldest completed entries are evicted cache-first: a victim's
	// replay re-executes, exactly as if it had crossed a server restart.
	DedupCacheBytes int
}

func (c *Config) fill() {
	if c.Name == "" {
		c.Name = "faspserver"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 1 << 20
	}
	if c.ScanLimit <= 0 {
		c.ScanLimit = 256
	}
	if c.HealInterval <= 0 {
		c.HealInterval = 10 * time.Millisecond
	}
	if c.DedupCacheBytes == 0 {
		c.DedupCacheBytes = 256 << 10
	}
}

// ErrServerClosed is returned by Serve after Shutdown completes the drain.
var ErrServerClosed = errors.New("server: closed")

// Server serves one fasp.KV over the wire protocol. It does not own the
// KV: Shutdown drains and returns, and the caller closes the store (the
// faspserver daemon does exactly that on SIGTERM).
type Server struct {
	kv  *fasp.KV
	cfg Config

	ln       net.Listener
	sem      chan struct{}
	draining atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	connWG sync.WaitGroup // reader goroutines
	reqMu  sync.Mutex     // serialises reqWG.Add-from-zero against Wait
	reqWG  sync.WaitGroup // processing rounds with undelivered responses

	met      metrics
	sessions *sessionTable
	healQuit chan struct{} // non-nil when AutoHeal
	healDone chan struct{}
	unreg    func()
	downMu   sync.Mutex // serialises Shutdown/Kill
	down     bool
}

// New builds a Server over kv.
func New(kv *fasp.KV, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		kv:       kv,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		conns:    make(map[net.Conn]struct{}),
		sessions: newSessionTable(maxSessions, dedupWindow, cfg.DedupCacheBytes),
	}
	s.sessions.bytes = &s.met.dedupBytes
	if cfg.AutoHeal {
		s.healQuit = make(chan struct{})
		s.healDone = make(chan struct{})
		go s.runHealer()
	}
	return s
}

// Listen binds addr (":0" for ephemeral) and registers the metrics
// source; call Serve to start accepting.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen: %w", err)
	}
	s.ln = ln
	if !s.cfg.NoMetricsSource {
		name := s.cfg.Name
		s.unreg = fasp.RegisterPromSource(func(w io.Writer) {
			obsv.WriteServerPrometheus(w, name, s.Snapshot())
		})
	}
	return ln.Addr().String(), nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Shutdown, then returns ErrServerClosed.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		// Register under s.mu with a draining re-check: Shutdown stores
		// draining before it sweeps s.conns under the same lock, so a
		// connection either lands in the map before the sweep (and gets its
		// read unblocked) or observes draining here and is closed — a late
		// registrant can never slip past the sweep and outlive Shutdown.
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		if s.cfg.WrapConn != nil {
			// Wrap before registering so the shutdown sweep closes the
			// wrapper (and through it the socket), not a bypassed inner
			// conn.
			c = s.cfg.WrapConn(c)
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.met.connsTotal.Add(1)
		s.met.connsOpen.Add(1)
		go s.serveConn(c)
	}
}

// Shutdown drains gracefully: stop accepting, answer new requests with
// SHUTDOWN, wait for every in-flight batch to commit and its responses to
// flush, then close the connections. It is idempotent and safe to call
// concurrently; the KV is left open for the caller to Close.
func (s *Server) Shutdown() {
	s.downMu.Lock()
	defer s.downMu.Unlock()
	if s.down {
		return
	}
	s.down = true

	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	// In-flight processing rounds finish their group commits and write
	// their final responses. The mutex keeps a reader's Add-from-zero from
	// racing the Wait (a WaitGroup cannot re-arm under a waiter); a round
	// that starts after the barrier still completes under connWG, with its
	// requests answered SHUTDOWN.
	s.reqMu.Lock()
	s.reqWG.Wait()
	s.reqMu.Unlock()
	// Unblock readers parked on idle sockets. CloseRead delivers EOF while
	// still letting a racing final response flush; SetReadDeadline is the
	// fallback for non-TCP conns.
	s.mu.Lock()
	for c := range s.conns {
		if cr, ok := c.(interface{ CloseRead() error }); ok {
			cr.CloseRead()
		} else {
			c.SetReadDeadline(time.Unix(0, 0))
		}
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.stopHealer()
	if s.unreg != nil {
		s.unreg()
	}
}

// Kill is the abrupt counterpart of Shutdown, for crash-restart testing: it
// stops accepting and closes every connection immediately, without the
// drain or the SHUTDOWN answers — in-flight requests simply never get their
// responses, exactly as if the process died. Reader goroutines are still
// waited out (an in-flight group commit finishes against the KV; its acks
// are lost on the closed sockets), so when Kill returns no server goroutine
// touches the KV again and the caller may Crash/Reopen it and start a fresh
// Server on the same address.
func (s *Server) Kill() {
	s.downMu.Lock()
	defer s.downMu.Unlock()
	if s.down {
		return
	}
	s.down = true

	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.stopHealer()
	if s.unreg != nil {
		s.unreg()
	}
}

func (s *Server) stopHealer() {
	if s.healQuit != nil {
		close(s.healQuit)
		<-s.healDone
	}
}

// Snapshot renders the server's metrics counters.
func (s *Server) Snapshot() obsv.ServerSnapshot {
	snap := s.met.snapshot(len(s.sem), cap(s.sem))
	es := s.kv.EngineStats()
	// The gauge counts shards not serving, whatever the flavour: a
	// crashed shard refuses requests exactly like a degraded one.
	snap.DegradedShards = int64(es.DegradedShards + es.CrashedShards)
	return snap
}

// retryHintMS is the retry-after hint (milliseconds) an error response of
// the given code carries: how long the client should back off before the
// condition can plausibly have cleared. BUSY clears as soon as in-flight
// requests drain; UNAVAIL clears on the auto-heal cadence (or operator
// action, for which 50ms is an honest polling hint).
func (s *Server) retryHintMS(code wire.Code) uint32 {
	switch code {
	case wire.CodeBusy:
		return 2
	case wire.CodeUnavail:
		if s.cfg.AutoHeal {
			ms := 2 * s.cfg.HealInterval.Milliseconds()
			if ms < 1 {
				ms = 1
			}
			return uint32(ms)
		}
		return 50
	}
	return 0
}

// beginRound registers one processing round with undelivered responses;
// the round ends with reqWG.Done after its responses are written.
func (s *Server) beginRound() {
	s.reqMu.Lock()
	s.reqWG.Add(1)
	s.reqMu.Unlock()
}

// admit try-acquires one in-flight slot; false sheds the request as BUSY.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) release() { <-s.sem }

func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	defer s.met.connsOpen.Add(-1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	newConn(s, c).run()
}
