// Command faspserver serves a sharded fasp.KV over the length-prefixed
// binary wire protocol (internal/server/wire): pipelined GET/PUT/DEL/
// BATCH/SCAN/COUNT/STATS/PING with typed error codes, cross-connection
// group commit, and BUSY backpressure that sheds requests, never
// connections.
//
// Usage:
//
//	faspserver -addr :4440 -shards 8 -metrics-addr :9100
//
// SIGTERM/SIGINT drains gracefully: the listener closes, in-flight
// batches commit and flush their responses, late requests get typed
// SHUTDOWN, and only then is the store closed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"fasp"
	"fasp/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:4440", "wire-protocol listen address")
		mAddr    = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) on this address")
		pprofOn  = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the metrics address (off by default)")
		shards   = flag.Int("shards", 8, "hash-partitioned shards")
		scheme   = flag.String("scheme", "", "commit scheme (fast+, fast, nvwal, wal, journal; default fast+)")
		pageSize = flag.Int("pagesize", 4096, "slotted-page size in bytes")
		maxBatch = flag.Int("maxbatch", 0, "group-commit drain bound (0 = default)")
		inflight = flag.Int("inflight", 0, "max concurrently admitted requests before BUSY (0 = default 1024)")
		idleTO   = flag.Duration("idle-timeout", 0, "close connections idle longer than this, after a typed TIMEOUT notice (0 = never)")
		writeTO  = flag.Duration("write-timeout", 0, "per-connection response write deadline (0 = none)")
		autoheal = flag.Bool("autoheal", false, "background auto-heal loop: recover degraded/crashed shards automatically")
		healIvl  = flag.Duration("heal-interval", 0, "with -autoheal: base heal retry cadence (0 = default 10ms)")
	)
	flag.Parse()

	kv, err := fasp.OpenKV(fasp.Options{
		Scheme:   *scheme,
		PageSize: *pageSize,
		Shards:   *shards,
		MaxBatch: *maxBatch,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "faspserver: open: %v\n", err)
		os.Exit(1)
	}

	var ms *fasp.MetricsServer
	if *mAddr != "" {
		if *pprofOn {
			ms, err = fasp.ServeMetricsPprof(*mAddr)
		} else {
			ms, err = fasp.ServeMetrics(*mAddr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "faspserver: metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("faspserver: metrics on http://%s/metrics\n", ms.Addr())
		if *pprofOn {
			fmt.Printf("faspserver: pprof on http://%s/debug/pprof/\n", ms.Addr())
		}
	} else if *pprofOn {
		fmt.Fprintln(os.Stderr, "faspserver: -pprof requires -metrics-addr")
		os.Exit(1)
	}

	srv := server.New(kv, server.Config{
		MaxInFlight:  *inflight,
		IdleTimeout:  *idleTO,
		WriteTimeout: *writeTO,
		AutoHeal:     *autoheal,
		HealInterval: *healIvl,
	})
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faspserver: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("faspserver: serving %d shards on %s\n", *shards, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		fmt.Printf("faspserver: %v — draining\n", s)
		srv.Shutdown()
	}()

	if err := srv.Serve(); err != server.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "faspserver: serve: %v\n", err)
		srv.Shutdown()
		kv.Close()
		os.Exit(1)
	}
	// Drain finished: every acked write is already durable; close the store.
	kv.Close()
	if ms != nil {
		ms.Close()
	}
	fmt.Println("faspserver: drained, store closed")
}
