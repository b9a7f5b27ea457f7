package server

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fasp"
	"fasp/internal/server/loadgen"
	"fasp/internal/server/wire"
)

// mixedBatch is round r of one deterministic mixed workload: cross-shard
// ops with logical verdicts — puts, fresh inserts, duplicate inserts
// (CodeDup) and updates of never-written keys (CodeKeyAbsent).
func mixedBatch(round int) []wire.BatchOp {
	ops := make([]wire.BatchOp, 0, 12)
	for i := 0; i < 12; i++ {
		k := []byte(fmt.Sprintf("mix-%02d-%02d", round, i))
		switch i % 4 {
		case 0:
			ops = append(ops, wire.BatchOp{Kind: wire.KindPut, Key: k, Val: []byte(fmt.Sprintf("r%d", round))})
		case 1:
			ops = append(ops, wire.BatchOp{Kind: wire.KindInsert, Key: k, Val: []byte("ins")})
		case 2: // duplicate insert of the previous key → CodeDup
			prev := []byte(fmt.Sprintf("mix-%02d-%02d", round, i-1))
			ops = append(ops, wire.BatchOp{Kind: wire.KindInsert, Key: prev, Val: []byte("dup")})
		case 3: // update of a never-written key → CodeKeyAbsent
			ops = append(ops, wire.BatchOp{Kind: wire.KindUpdate, Key: []byte(fmt.Sprintf("absent-%02d-%02d", round, i)), Val: []byte("x")})
		}
	}
	return ops
}

// runMixedWorkload drives the mixed workload — 20 rounds of a BATCH then a
// single PUT, then one DEL — through batch and returns every batch verdict
// vector in issue order.
func runMixedWorkload(t *testing.T, batch func([]wire.BatchOp) []wire.Code) [][]wire.Code {
	t.Helper()
	var verdicts [][]wire.Code
	one := func(kind uint8, key, val string) {
		t.Helper()
		if c := batch([]wire.BatchOp{{Kind: kind, Key: []byte(key), Val: []byte(val)}}); c[0] != wire.CodeOK {
			t.Fatalf("op %d on %q: %v", kind, key, c[0])
		}
	}
	for round := 0; round < 20; round++ {
		verdicts = append(verdicts, batch(mixedBatch(round)))
		one(wire.KindPut, fmt.Sprintf("solo-%02d", round), "s")
	}
	one(wire.KindDelete, "solo-00", "")
	return verdicts
}

// TestServerVsDirectEquivalence pins the serving path against the engine's
// deterministic one: the same workload through the wire — one KV.Submit
// per flush, split by shard inside the engine, verdicts copied back in
// request order — and straight through KV.ApplyBatch produces identical
// request-order verdicts and identical final state.
func TestServerVsDirectEquivalence(t *testing.T) {
	_, _, addr := start(t, fasp.Options{Shards: 8}, Config{})
	cl := dial(t, addr)
	vSrv := runMixedWorkload(t, func(ops []wire.BatchOp) []wire.Code {
		codes, err := cl.Batch(ops)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		return append([]wire.Code(nil), codes...)
	})

	direct, err := fasp.OpenKV(fasp.Options{Shards: 8})
	if err != nil {
		t.Fatalf("OpenKV: %v", err)
	}
	defer direct.Close()
	vDirect := runMixedWorkload(t, func(ops []wire.BatchOp) []wire.Code {
		kops := make([]fasp.Op, len(ops))
		for i, b := range ops {
			kops[i] = fasp.Op{Kind: fasp.OpKind(b.Kind), Key: b.Key, Val: b.Val}
		}
		var codes []wire.Code
		for _, err := range direct.ApplyBatch(kops) {
			codes = append(codes, wire.CodeFor(err))
		}
		return codes
	})

	for r := range vDirect {
		for i := range vDirect[r] {
			if vSrv[r][i] != vDirect[r][i] {
				t.Fatalf("round %d verdict %d: server %v, direct %v", r, i, vSrv[r][i], vDirect[r][i])
			}
		}
	}
	want := map[string]string{}
	if err := direct.Scan(nil, nil, func(k, v []byte) bool {
		want[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("direct scan: %v", err)
	}
	got := map[string]string{}
	if err := cl.Scan(nil, nil, false, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("keyspace size: server %d, direct %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: server %q, direct %q", k, got[k], v)
		}
	}
}

// TestCrossShardBatchVerdictOrder pins the verdict order directly: one
// BATCH whose keys hash to many shards gets its per-op codes back in
// request order, not shard-major order.
func TestCrossShardBatchVerdictOrder(t *testing.T) {
	_, kv, addr := start(t, fasp.Options{Shards: 8}, Config{})
	cl := dial(t, addr)

	// Seed one key so the batch can hit a deliberate duplicate.
	if err := cl.Put([]byte("seeded"), []byte("v")); err != nil {
		t.Fatalf("seed: %v", err)
	}
	shards := map[int]bool{}
	ops := make([]wire.BatchOp, 0, 64)
	want := make([]wire.Code, 0, 64)
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("xs-%03d", i))
		shards[kv.ShardOf(k)] = true
		switch {
		case i%7 == 3: // dup insert, interleaved mid-batch
			ops = append(ops, wire.BatchOp{Kind: wire.KindInsert, Key: []byte("seeded"), Val: []byte("dup")})
			want = append(want, wire.CodeDup)
		case i%7 == 5: // absent update
			ops = append(ops, wire.BatchOp{Kind: wire.KindUpdate, Key: k, Val: []byte("x")})
			want = append(want, wire.CodeKeyAbsent)
		default:
			ops = append(ops, wire.BatchOp{Kind: wire.KindPut, Key: k, Val: []byte(fmt.Sprintf("%d", i))})
			want = append(want, wire.CodeOK)
		}
	}
	if len(shards) < 2 {
		t.Fatalf("workload only touched %d shards; key scheme too narrow", len(shards))
	}
	codes, err := cl.Batch(ops)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("code[%d] = %v, want %v (batch spanned %d shards)", i, codes[i], want[i], len(shards))
		}
	}
	// Values landed where request order says they should.
	for i := 0; i < 64; i++ {
		if i%7 == 3 || i%7 == 5 {
			continue
		}
		v, ok, err := cl.Get([]byte(fmt.Sprintf("xs-%03d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("%d", i) {
			t.Fatalf("xs-%03d = %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestShardCommitWidth drives concurrent pipelined load and asserts the
// shard rounds — the only group-commit stage — actually coalesce: the
// engine's batch-size distribution has a mean above 1, and the server's
// per-flush and per-shard-slice widths were observed at the enqueue.
func TestShardCommitWidth(t *testing.T) {
	srv, kv, addr := start(t, fasp.Options{Shards: 4}, Config{})
	res, err := loadgen.Run(loadgen.Config{
		Addr: addr, Conns: 16, Pipeline: 16, Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.ConnDrops != 0 || res.Errors != 0 {
		t.Fatalf("drops=%d errors=%d", res.ConnDrops, res.Errors)
	}
	bs := kv.Metrics().BatchSize
	if bs.Count == 0 {
		t.Fatal("no group commits observed")
	}
	if mean := bs.Mean(); mean <= 1 {
		t.Fatalf("shard rounds coalesced nothing: mean batch size %.2f", mean)
	}
	snap := srv.Snapshot()
	if snap.Coalesce.Count == 0 || snap.ShardCoalesce.Count < snap.Coalesce.Count {
		t.Fatalf("enqueue widths unobserved: %d flushes, %d shard slices", snap.Coalesce.Count, snap.ShardCoalesce.Count)
	}
}

// TestOneShardGathersConnections: on a one-shard store the shard's round
// is still the group-commit stage. Every connection keeps a single PUT in
// flight, so each flush carries one op and only the queue can gather:
// fewer commits than ops means writes of different connections shared
// transactions. The shard's first round stalls until every connection's
// PUT is admitted, so the round after it finds the others queued whatever
// the scheduler does, on one processor too.
func TestOneShardGathersConnections(t *testing.T) {
	const conns = 16
	var srv *Server
	var stalled, allAdmitted atomic.Bool
	hook := func(int) {
		if stalled.Swap(true) {
			return
		}
		// The hook runs under the shard lock, which Snapshot's engine
		// stats take, so it reads the admission gate itself.
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if len(srv.sem) == conns {
				allAdmitted.Store(true)
				return
			}
		}
	}
	srv, kv, addr := start(t, fasp.Options{Shards: 1, FaultHook: hook}, Config{})
	res, err := loadgen.Run(loadgen.Config{
		Addr: addr, Conns: conns, Pipeline: 1, Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.ConnDrops != 0 || res.Errors != 0 {
		t.Fatalf("drops=%d errors=%d", res.ConnDrops, res.Errors)
	}
	if !allAdmitted.Load() {
		t.Fatalf("the first round never saw all %d connections' PUTs admitted", conns)
	}
	if st := kv.EngineStats(); st.Ops == 0 || st.Batches >= st.Ops {
		t.Fatalf("%d connections' writes were not gathered: %d ops in %d commits", conns, st.Ops, st.Batches)
	}
}

// TestWedgedShardAnswersBusy: a shard whose round is stuck backs up only
// its own queue. Writes beyond the queue come back at once as typed BUSY
// pinned to that shard with a retry hint — where a connection used to
// block forever on the full pipe channel — while the other shard keeps
// acking, and once the round resumes everything queued commits and
// Shutdown returns.
func TestWedgedShardAnswersBusy(t *testing.T) {
	const conns, maxBatch = 16, 2
	release := make(chan struct{})
	kv, err := fasp.OpenKV(fasp.Options{
		Shards: 2, MaxBatch: maxBatch, // queue = 4×MaxBatch = 8
		FaultHook: func(si int) {
			if si == 0 {
				<-release
			}
		},
	})
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

	keyOn := func(si, n int) []byte {
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("w%d-%d-%d", si, n, i))
			if kv.ShardOf(k) == si {
				return k
			}
		}
	}
	type verdict struct {
		code    wire.Code
		shard   int32
		retryMS uint32
	}
	verdicts := make(chan verdict, conns)
	for c := 0; c < conns; c++ {
		cl := dial(t, addr)
		cl.QueuePut(keyOn(0, c), []byte("v"))
		if err := cl.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		go func() {
			code, payload, err := cl.Recv()
			if err != nil {
				t.Errorf("recv: %v", err)
			}
			v := verdict{code: code, shard: -1}
			if code != wire.CodeOK {
				v.shard, v.retryMS, _ = wire.ParseErr(payload)
			}
			verdicts <- v
		}()
	}

	// The stuck round holds at most MaxBatch single-op requests and the
	// queue 8 more; every write beyond that is refused.
	const wantBusy = conns - 4*maxBatch - maxBatch
	for i := 0; i < wantBusy; i++ {
		select {
		case v := <-verdicts:
			if v.code != wire.CodeBusy || v.shard != 0 || v.retryMS == 0 {
				t.Fatalf("write past the wedged queue: code %v shard %d retry %dms, want BUSY pinned to shard 0 with a hint", v.code, v.shard, v.retryMS)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d overflow writes answered; the rest hang", i, wantBusy)
		}
	}
	other := dial(t, addr)
	if err := other.Put(keyOn(1, 0), []byte("v")); err != nil {
		t.Fatalf("healthy shard while shard 0 is wedged: %v", err)
	}

	close(release)
	for i := wantBusy; i < conns; i++ {
		select {
		case v := <-verdicts:
			if v.code != wire.CodeOK && v.code != wire.CodeBusy {
				t.Fatalf("queued write after release: %v", v.code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued writes never completed after the round resumed")
		}
	}
	down := make(chan struct{})
	go func() { srv.Shutdown(); close(down) }()
	select {
	case <-down:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hangs after a wedged shard")
	}
}

// TestServerQueuesOnMailboxes: with connections enqueueing directly on the
// shard queues, a many-connection load leaves a non-zero depth behind a
// drain — requests queue while another connection's round commits — and
// the exported MailDepth histogram sees it.
func TestServerQueuesOnMailboxes(t *testing.T) {
	_, kv, addr := start(t, fasp.Options{Shards: 2, MaxBatch: 8}, Config{})
	res, err := loadgen.Run(loadgen.Config{
		Addr: addr, Conns: 32, Pipeline: 8, Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.ConnDrops != 0 || res.Errors != 0 {
		t.Fatalf("drops=%d errors=%d", res.ConnDrops, res.Errors)
	}
	md := kv.Metrics().MailDepth
	if md.Count == 0 {
		t.Fatal("no queue drains observed")
	}
	if md.Sum == 0 {
		t.Fatalf("queue depth was 0 at all %d drains: requests never queue under the server", md.Count)
	}
}

// TestDedupCacheByteBudget unit-tests the per-session reply-byte budget:
// completed replies past the budget are evicted oldest-first, the
// server-wide gauge tracks exactly the cached bytes, and an evicted
// token's replay re-executes as fresh.
func TestDedupCacheByteBudget(t *testing.T) {
	var gauge atomic.Int64
	tbl := newSessionTable(4, 64, 64) // 64-byte budget
	tbl.bytes = &gauge
	ss := tbl.get(1)

	reply := make([]byte, 24)
	for seq := uint64(1); seq <= 5; seq++ {
		e, st := ss.begin(seq)
		if st != seqFresh {
			t.Fatalf("seq %d: state %v", seq, st)
		}
		_ = e
		ss.complete(seq, reply)
	}
	ss.mu.Lock()
	cached := ss.cached
	ss.mu.Unlock()
	if cached > 64 {
		t.Fatalf("cached %d bytes > 64 budget", cached)
	}
	if g := gauge.Load(); g != cached {
		t.Fatalf("gauge %d != session cached %d", g, cached)
	}

	// Oldest tokens were evicted; their replay re-executes as fresh.
	if _, st := ss.begin(1); st != seqFresh {
		t.Fatalf("evicted token replay state %v, want fresh", st)
	}
	// Newest token is still served from cache.
	if _, st := ss.begin(5); st != seqDone {
		t.Fatalf("newest token state %v, want done", st)
	}

	// Session-table eviction returns the victim's bytes to the gauge.
	for id := uint64(2); id <= 6; id++ {
		tbl.get(id)
	}
	// With capacity 4 and 6 distinct ids, at least two sessions were
	// evicted; if session 1 was among them its bytes left the gauge.
	tbl.mu.Lock()
	_, alive := tbl.m[1]
	tbl.mu.Unlock()
	if !alive {
		ss.mu.Lock()
		left := ss.cached
		ss.mu.Unlock()
		if left != 0 {
			t.Fatalf("evicted session still accounts %d bytes", left)
		}
	}
	if g := gauge.Load(); g < 0 {
		t.Fatalf("gauge went negative: %d", g)
	}
}

// TestDedupBudgetUnbounded pins the -1 sentinel: no byte eviction, every
// completed reply stays cached within the token window.
func TestDedupBudgetUnbounded(t *testing.T) {
	tbl := newSessionTable(4, 64, -1)
	ss := tbl.get(1)
	reply := make([]byte, 100)
	for seq := uint64(1); seq <= 10; seq++ {
		if _, st := ss.begin(seq); st != seqFresh {
			t.Fatalf("seq %d: %v", seq, st)
		}
		ss.complete(seq, reply)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if _, st := ss.begin(seq); st != seqDone {
			t.Fatalf("seq %d evicted under unbounded budget: %v", seq, st)
		}
	}
}
