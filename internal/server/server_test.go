package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"fasp"
	"fasp/internal/obsv"
	"fasp/internal/server/client"
	"fasp/internal/server/loadgen"
	"fasp/internal/server/wire"
)

// start opens a KV, serves it, and tears both down with the test.
func start(t *testing.T, opts fasp.Options, cfg Config) (*Server, *fasp.KV, string) {
	t.Helper()
	kv, err := fasp.OpenKV(opts)
	if err != nil {
		t.Fatalf("OpenKV: %v", err)
	}
	srv := New(kv, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Shutdown()
		kv.Close()
	})
	return srv, kv, addr
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestEndToEnd(t *testing.T) {
	_, _, addr := start(t, fasp.Options{Shards: 4}, Config{})
	cl := dial(t, addr)

	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := cl.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := cl.Get([]byte("alpha"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get: %q %v %v", v, ok, err)
	}
	if _, ok, err := cl.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("Get miss: ok=%v err=%v", ok, err)
	}
	if err := cl.Put([]byte("alpha"), []byte("2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	if v, _, _ := cl.Get([]byte("alpha")); string(v) != "2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if err := cl.Del([]byte("alpha")); err != nil {
		t.Fatalf("Del: %v", err)
	}
	if _, ok, _ := cl.Get([]byte("alpha")); ok {
		t.Fatal("key survives Del")
	}

	// Batch with mixed logical verdicts.
	codes, err := cl.Batch([]wire.BatchOp{
		{Kind: wire.KindInsert, Key: []byte("b1"), Val: []byte("x")},
		{Kind: wire.KindInsert, Key: []byte("b1"), Val: []byte("y")},   // dup
		{Kind: wire.KindUpdate, Key: []byte("nope"), Val: []byte("z")}, // absent
		{Kind: wire.KindPut, Key: []byte("b2"), Val: []byte("w")},
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	want := []wire.Code{wire.CodeOK, wire.CodeDup, wire.CodeKeyAbsent, wire.CodeOK}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("batch code[%d] = %v, want %v", i, codes[i], want[i])
		}
	}

	// Typed sentinel through the sync API.
	if err := cl.Del([]byte("never-existed")); !errors.Is(err, wire.ErrRemoteKeyAbsent) {
		t.Fatalf("Del absent: %v", err)
	}

	n, err := cl.Count()
	if err != nil || n != 2 {
		t.Fatalf("Count = %d, %v", n, err)
	}

	stats, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	var rep struct {
		Server obsv.ServerSnapshot `json:"server"`
	}
	if err := json.Unmarshal(stats, &rep); err != nil {
		t.Fatalf("stats json: %v\n%s", err, stats)
	}
	if rep.Server.ConnsOpen < 1 {
		t.Fatalf("stats conns_open = %d", rep.Server.ConnsOpen)
	}
}

func TestScanPaging(t *testing.T) {
	_, kv, addr := start(t, fasp.Options{Shards: 4}, Config{ScanLimit: 100})
	ops := make([]fasp.Op, 600)
	for i := range ops {
		ops[i] = fasp.Op{Kind: fasp.OpPut, Key: []byte(fmt.Sprintf("k%04d", i)), Val: []byte(fmt.Sprintf("v%d", i))}
	}
	for _, err := range kv.ApplyBatch(ops) {
		if err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	cl := dial(t, addr)

	var keys []string
	if err := cl.Scan(nil, nil, false, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(keys) != 600 {
		t.Fatalf("forward scan got %d keys", len(keys))
	}
	for i := range keys {
		if keys[i] != fmt.Sprintf("k%04d", i) {
			t.Fatalf("keys[%d] = %s", i, keys[i])
		}
	}

	keys = keys[:0]
	if err := cl.Scan(nil, nil, true, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatalf("reverse Scan: %v", err)
	}
	if len(keys) != 600 {
		t.Fatalf("reverse scan got %d keys", len(keys))
	}
	for i := range keys {
		if keys[i] != fmt.Sprintf("k%04d", 599-i) {
			t.Fatalf("rev keys[%d] = %s", i, keys[i])
		}
	}

	// Bounded, limited, early-stopped.
	keys = keys[:0]
	if err := cl.Scan([]byte("k0100"), []byte("k0105"), false, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return len(keys) < 3
	}); err != nil {
		t.Fatalf("bounded Scan: %v", err)
	}
	if len(keys) != 3 || keys[0] != "k0100" || keys[2] != "k0102" {
		t.Fatalf("bounded scan: %v", keys)
	}
}

// TestPipelinedOrdering pins strict in-order responses and the
// flush-before-read ordering: a pipelined GET observes every PUT queued
// before it on the same connection.
func TestPipelinedOrdering(t *testing.T) {
	_, _, addr := start(t, fasp.Options{Shards: 4}, Config{})
	cl := dial(t, addr)

	const n = 200
	for i := 0; i < n; i++ {
		cl.QueuePut([]byte(fmt.Sprintf("p%03d", i)), []byte(fmt.Sprintf("%d", i)))
		cl.QueueGet([]byte(fmt.Sprintf("p%03d", i)))
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < n; i++ {
		code, _, err := cl.Recv() // PUT ack
		if err != nil || code != wire.CodeOK {
			t.Fatalf("put %d: %v %v", i, code, err)
		}
		code, payload, err := cl.Recv() // GET response
		if err != nil || code != wire.CodeOK {
			t.Fatalf("get %d: %v %v", i, code, err)
		}
		if string(payload) != fmt.Sprintf("%d", i) {
			t.Fatalf("get %d read %q", i, payload)
		}
	}
}

// TestCoalescing drives many connections and checks the server observed
// multi-op engine submissions (the coalesce histogram) — pipelined frames
// batch even within one connection, and the shard queues batch across
// connections.
func TestCoalescing(t *testing.T) {
	srv, kv, addr := start(t, fasp.Options{Shards: 4}, Config{})
	res, err := loadgen.Run(loadgen.Config{
		Addr: addr, Conns: 16, Pipeline: 16, Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.ConnDrops != 0 || res.Errors != 0 {
		t.Fatalf("drops=%d errors=%d", res.ConnDrops, res.Errors)
	}
	snap := srv.Snapshot()
	if snap.Coalesce.Count == 0 {
		t.Fatal("no engine submissions observed")
	}
	if mean := snap.Coalesce.Mean(); mean <= 1 {
		t.Fatalf("pipelined load coalesced nothing: mean width %.2f", mean)
	}
	st := kv.EngineStats()
	if st.Batches == 0 || st.Ops == 0 {
		t.Fatalf("engine saw no batches: %+v", st)
	}
}

// TestBackpressureBusy pins the overload contract: with a tiny in-flight
// gate and a flood of connections, requests are shed with typed BUSY
// responses and not a single connection is dropped.
func TestBackpressureBusy(t *testing.T) {
	_, _, addr := start(t, fasp.Options{Shards: 2}, Config{MaxInFlight: 1})
	res, err := loadgen.Run(loadgen.Config{
		Addr: addr, Conns: 8, Pipeline: 32, Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.Busy == 0 {
		t.Fatalf("no BUSY under MaxInFlight=1 flood: %+v", res)
	}
	if res.ConnDrops != 0 {
		t.Fatalf("overload dropped %d connections", res.ConnDrops)
	}
	if res.Errors != 0 {
		t.Fatalf("overload produced %d untyped errors", res.Errors)
	}
	if res.OpsAcked == 0 {
		t.Fatal("overload acked nothing — shed everything")
	}
}

// TestGracefulShutdown pins the drain sequence: acked writes survive,
// requests during the drain get typed SHUTDOWN (or a clean close), and
// Shutdown returns only after in-flight responses are flushed.
func TestGracefulShutdown(t *testing.T) {
	kv, err := fasp.OpenKV(fasp.Options{Shards: 4})
	if err != nil {
		t.Fatalf("OpenKV: %v", err)
	}
	defer kv.Close()
	srv := New(kv, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve()

	// Phase 1: acked writes before the drain.
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	const acked = 100
	for i := 0; i < acked; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("pre%03d", i)), []byte("v")); err != nil {
			t.Fatalf("pre put %d: %v", i, err)
		}
	}

	// Phase 2: concurrent load while Shutdown runs.
	var wg sync.WaitGroup
	var shutdownSeen, closedSeen bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl2, err := client.Dial(addr)
		if err != nil {
			return
		}
		defer cl2.Close()
		for i := 0; ; i++ {
			err := cl2.Put([]byte(fmt.Sprintf("mid%05d", i)), []byte("v"))
			if errors.Is(err, wire.ErrRemoteShutdown) {
				shutdownSeen = true
				return
			}
			if err != nil {
				closedSeen = true
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Shutdown()
	wg.Wait()
	if !shutdownSeen && !closedSeen {
		t.Fatal("drain phase writer saw neither SHUTDOWN nor close")
	}

	// Every pre-drain ack is durable in the still-open KV.
	for i := 0; i < acked; i++ {
		v, ok, err := kv.Get([]byte(fmt.Sprintf("pre%03d", i)))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("acked pre%03d lost: %q %v %v", i, v, ok, err)
		}
	}

	// The listener is closed and a second Shutdown is a no-op.
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
	srv.Shutdown()
}

// TestProtoErrors pins the untrusted-peer behaviour end to end: garbage
// framing gets a typed PROTO response and the connection is closed; the
// server survives.
func TestProtoErrors(t *testing.T) {
	_, _, addr := start(t, fasp.Options{Shards: 2}, Config{MaxFrame: 1 << 16})

	// Oversized frame length.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.Write([]byte{0xff, 0xff, 0xff, 0xff, 1})
	assertProtoThenEOF(t, c)

	// Unknown opcode inside a well-formed frame.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial2: %v", err)
	}
	defer c2.Close()
	c2.Write([]byte{0, 0, 0, 1, 0x7e})
	assertProtoThenEOF(t, c2)

	// The server still serves new clients.
	cl := dial(t, addr)
	if err := cl.Ping(); err != nil {
		t.Fatalf("post-proto ping: %v", err)
	}
}

func assertProtoThenEOF(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var hdr [5]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatalf("read proto response header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if wire.Code(hdr[4]) != wire.CodeProto {
		t.Fatalf("code = %d, want proto", hdr[4])
	}
	rest := make([]byte, n-1)
	if _, err := io.ReadFull(c, rest); err != nil {
		t.Fatalf("read proto payload: %v", err)
	}
	// Then the server closes.
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after proto: %v, want EOF", err)
	}
}

// TestMetricsEndpoint scrapes the facade /metrics with the server source
// registered and validates the exposition.
func TestMetricsEndpoint(t *testing.T) {
	_, _, addr := start(t, fasp.Options{Shards: 2}, Config{Name: "testsrv"})
	cl := dial(t, addr)
	for i := 0; i < 50; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("m%03d", i)), []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if _, _, err := cl.Get([]byte("m000")); err != nil {
		t.Fatalf("get: %v", err)
	}

	// The client retry layer publishes its telemetry on the same endpoint.
	unreg := fasp.RegisterPromSource(func(w io.Writer) {
		obsv.WriteClientPrometheus(w, "testsrv-clients", client.PromSnapshot())
	})
	defer unreg()

	ms, err := fasp.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	defer ms.Close()
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if err := obsv.ValidatePrometheus(body); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		`fasp_server_requests_total{server="testsrv",op="put"}`,
		`fasp_server_connections_total{server="testsrv"}`,
		`fasp_server_coalesce_width_count{server="testsrv"}`,
		`fasp_server_rejects_total{server="testsrv",reason="busy"}`,
		`fasp_server_conn_timeouts_total{server="testsrv"}`,
		`fasp_server_heal_attempts_total{server="testsrv"}`,
		`fasp_server_heal_failures_total{server="testsrv"}`,
		`fasp_server_degraded_shards{server="testsrv"}`,
		`fasp_client_retries_total{client="testsrv-clients",code="busy"}`,
		`fasp_client_retries_total{client="testsrv-clients",code="conn_reset"}`,
		`fasp_client_retries_total{client="testsrv-clients",code="unavail"}`,
		`fasp_client_reconnects_total{client="testsrv-clients"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("scrape missing %q", want)
		}
	}
}

// TestErrorMappingEndToEnd drives engine availability errors through the
// wire: a crashed shard answers UNAVAIL pinned to that shard while the
// other shards keep serving, and a closed engine answers SHUTDOWN.
func TestErrorMappingEndToEnd(t *testing.T) {
	kv, err := fasp.OpenKV(fasp.Options{Shards: 4})
	if err != nil {
		t.Fatalf("OpenKV: %v", err)
	}
	defer kv.Close()
	srv := New(kv, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// Find keys on distinct shards.
	keyOn := func(shard int) []byte {
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("s%d-%d", shard, i))
			if shardOf(kv, k) == shard {
				return k
			}
		}
	}
	victimKey := keyOn(1)
	healthyKey := keyOn(2)

	if err := cl.Put(victimKey, []byte("v")); err != nil {
		t.Fatalf("seed victim: %v", err)
	}
	if err := cl.Put(healthyKey, []byte("v")); err != nil {
		t.Fatalf("seed healthy: %v", err)
	}

	// Crash shard 1 only: writes to it must come back UNAVAIL with the
	// shard id; the healthy shard keeps acking.
	sys, err := kv.ShardSystem(1)
	if err != nil {
		t.Fatalf("ShardSystem: %v", err)
	}
	sys.CrashAfter(1)
	// Trip the crash point with a write to the victim shard.
	err = cl.Put(victimKey, []byte("v2"))
	if !errors.Is(err, wire.ErrRemoteUnavail) {
		t.Fatalf("crashed-shard put: %v, want unavail", err)
	}
	err = cl.Put(victimKey, []byte("v3"))
	if !errors.Is(err, wire.ErrRemoteUnavail) {
		t.Fatalf("crashed-shard put 2: %v, want unavail", err)
	}
	if err := cl.Put(healthyKey, []byte("v2")); err != nil {
		t.Fatalf("healthy shard during degradation: %v", err)
	}
}

// shardOf mirrors the engine's key partitioning for test key targeting.
func shardOf(kv *fasp.KV, key []byte) int {
	// FNV-1a, as internal/shard.ShardFor.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(kv.Shards()))
}

// TestEmptyBatch pins two regressions around zero-op BATCH frames (valid
// per ParseRequest): the reply must be a batch-shaped frame with zero
// verdicts, and — since an empty batch is never admitted — it must not
// consume an in-flight gate slot. The old code leaked one slot per empty
// batch, so a handful of empty frames against a small gate turned every
// later request into BUSY forever.
func TestEmptyBatch(t *testing.T) {
	_, _, addr := start(t, fasp.Options{Shards: 2}, Config{MaxInFlight: 4})
	cl := dial(t, addr)

	for i := 0; i < 64; i++ {
		codes, err := cl.Batch(nil)
		if err != nil {
			t.Fatalf("empty Batch #%d: %v", i, err)
		}
		if len(codes) != 0 {
			t.Fatalf("empty Batch codes = %v", codes)
		}
	}
	// The gate must be fully free: real work still gets through.
	if err := cl.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatalf("Put after empty batches: %v", err)
	}
	codes, err := cl.Batch([]wire.BatchOp{{Kind: wire.KindPut, Key: []byte("b"), Val: []byte("v")}})
	if err != nil || len(codes) != 1 || codes[0] != wire.CodeOK {
		t.Fatalf("real Batch after empty batches: %v %v", codes, err)
	}
}

// TestScanPageBudgetReachesShards: one 16-pair SCAN page makes each shard
// gather the page plus the one look-ahead pair that decides the
// more-marker, not a full 256-pair chunk.
func TestScanPageBudgetReachesShards(t *testing.T) {
	_, kv, addr := start(t, fasp.Options{Shards: 4}, Config{ScanLimit: 16})
	ops := make([]fasp.Op, 2000)
	for i := range ops {
		ops[i] = fasp.Op{Kind: fasp.OpPut, Key: []byte(fmt.Sprintf("p%04d", i)), Val: []byte("v")}
	}
	for _, err := range kv.ApplyBatch(ops) {
		if err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	cl := dial(t, addr)
	seen := 0
	// fn stops inside the first page, so exactly one SCAN is served.
	if err := cl.Scan(nil, nil, false, func(k, v []byte) bool { seen++; return seen < 16 }); err != nil {
		t.Fatal(err)
	}
	if seen != 16 {
		t.Fatalf("first page delivered %d pairs, want 16", seen)
	}
	for i := 0; i < kv.Shards(); i++ {
		in, err := kv.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		if in.ScanPairs == 0 || in.ScanPairs > 17 {
			t.Errorf("shard %d gathered %d pairs for a 16-pair page, want 1..17", i, in.ScanPairs)
		}
	}
}

// TestScanPagingLimitOne drives paging at the degenerate page size of one
// pair, where every resume page used to consist solely of the reverse
// boundary duplicate — the old client saw "no progress" and silently
// returned after the first key. The exclusive-hi resume must deliver the
// whole range in both directions.
func TestScanPagingLimitOne(t *testing.T) {
	_, kv, addr := start(t, fasp.Options{Shards: 4}, Config{ScanLimit: 1})
	const n = 20
	ops := make([]fasp.Op, n)
	for i := range ops {
		ops[i] = fasp.Op{Kind: fasp.OpPut, Key: []byte(fmt.Sprintf("p%03d", i)), Val: []byte("v")}
	}
	for _, err := range kv.ApplyBatch(ops) {
		if err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	cl := dial(t, addr)

	var keys []string
	if err := cl.Scan(nil, nil, true, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatalf("reverse Scan: %v", err)
	}
	if len(keys) != n {
		t.Fatalf("reverse scan with 1-pair pages got %d keys, want %d: %v", len(keys), n, keys)
	}
	for i := range keys {
		if want := fmt.Sprintf("p%03d", n-1-i); keys[i] != want {
			t.Fatalf("rev keys[%d] = %s, want %s", i, keys[i], want)
		}
	}

	keys = keys[:0]
	if err := cl.Scan(nil, nil, false, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatalf("forward Scan: %v", err)
	}
	if len(keys) != n {
		t.Fatalf("forward scan with 1-pair pages got %d keys", len(keys))
	}

	// Bounded reverse paging across the same degenerate pages.
	keys = keys[:0]
	if err := cl.Scan([]byte("p005"), []byte("p014"), true, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatalf("bounded reverse Scan: %v", err)
	}
	if len(keys) != 10 || keys[0] != "p014" || keys[9] != "p005" {
		t.Fatalf("bounded reverse scan: %v", keys)
	}
}
