package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fasp"
	"fasp/internal/server/wire"
	"fasp/internal/shard"
)

// directEngine drives the workload's request streams straight into the
// sharded store — KV.SubmitShard, GetInto, Scan — from one goroutine per
// connection, with no server, no wire and no sockets, for the given time.
// What the same requests cost here is the engine's share of the TCP run.
// A closed-loop workload submits a window of depth requests at a time,
// grouped by shard as the server's connection handler groups them; a
// synchronous one submits each request alone, as it arrives there.
func directEngine(kv *fasp.KV, seed int64, sz srvSizing, mix [reqKinds]int, seconds float64) (cpuPerOp float64, tr *tracer, err error) {
	m := newSrvModel(sz)
	trs := make([]*tracer, sz.conns)
	ops := make([]int64, sz.conns)
	errs := make([]error, sz.conns)
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	cpu0 := cpuNS()
	var wg sync.WaitGroup
	for c := 0; c < sz.conns; c++ {
		trs[c] = newTracer(nil, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops[c], errs[c] = directConn(kv, newSrvStream(seed, m, c, uint64(c), mix), trs[c], sz.depth, end)
		}()
	}
	wg.Wait()
	cpu := cpuNS() - cpu0
	var total int64
	for c := range ops {
		total += ops[c]
		if c > 0 {
			trs[0].merge(trs[c])
		}
	}
	return float64(cpu) / 1e3 / float64(total), trs[0], errors.Join(errs...)
}

func directConn(kv *fasp.KV, st *srvStream, tr *tracer, depth int, end time.Time) (int64, error) {
	shards := kv.Shards()
	byShard := make([][]shard.Op, shards)
	errBuf := make([]error, depth*len(st.bops)+1)
	// Each op of a window needs its own key and value bytes until the
	// window is submitted; the stream's buffers are reused per draw.
	slab := make([]byte, 0, (depth*len(st.bops)+1)*(keyLen+st.m.sz.valLen))
	var val []byte
	var q request
	var done int64
	add := func(key, v []byte) {
		at := len(slab)
		slab = append(append(slab, key...), v...)
		si := kv.ShardOf(key)
		byShard[si] = append(byShard[si], shard.Op{Kind: shard.OpPut, Key: slab[at : at+keyLen], Val: slab[at+keyLen:]})
	}
	for time.Now().Before(end) {
		slab = slab[:0]
		for si := range byShard {
			byShard[si] = byShard[si][:0]
		}
		for i := 0; i < depth; i++ {
			st.draw(&q)
			tr.begin(spanOp)
			switch q.kind {
			case reqPut:
				add(st.key[:], st.val)
			case reqBatch:
				for j := range st.bops {
					add(st.bops[j].Key, st.bops[j].Val)
				}
			case reqGet:
				tr.begin(spanGet)
				v, ok, err := kv.GetInto(st.key[:], val[:0])
				tr.end()
				if err != nil || !ok {
					return done, errors.Join(err, errors.New("direct engine: GET missed a preloaded key"))
				}
				val = v
			case reqScan:
				n := 0
				tr.begin(spanScan)
				err := kv.Scan(st.key[:], st.hi[:], func(k, v []byte) bool {
					n++
					return n < st.m.sz.scanLen
				})
				tr.end()
				if err != nil {
					return done, err
				}
			}
			tr.end()
			done += int64(q.n)
		}
		for si, ops := range byShard {
			if len(ops) == 0 {
				continue
			}
			tr.begin(spanSubmit)
			kv.SubmitShard(si, ops, errBuf[:len(ops)])
			tr.end()
			if err := errors.Join(errBuf[:len(ops)]...); err != nil {
				return done, err
			}
		}
	}
	return done, nil
}

// wireCodec times the wire package alone over the workload's own frames:
// encoding n drawn requests into one buffer, then reading and parsing them
// back, with the allocations either direction makes.
func wireCodec(seed int64, sz srvSizing, mix [reqKinds]int, n int) (encodeNS, decodeNS, allocsPerFrame float64, err error) {
	st := newSrvStream(seed, newSrvModel(sz), 0, 0, mix)
	var q request
	buf := make([]byte, 0, n*(32+sz.valLen*max(sz.batch, 1)))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var enc time.Duration
	for i := 0; i < n; i++ {
		st.draw(&q)
		t0 := time.Now()
		buf = st.frame(&q, buf)
		enc += time.Since(t0)
	}
	br := bufio.NewReaderSize(bytes.NewReader(buf), 64<<10)
	var rbuf []byte
	var req wire.Request
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op, payload, nb, err := wire.ReadFrame(br, 0, rbuf)
		if err == nil {
			err = wire.ParseRequest(op, payload, &req)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		rbuf = nb
	}
	dec := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(enc) / float64(n), float64(dec) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

// openPhase offers the workload's requests at a fixed rate on a freshly
// preloaded store, as independent users would, and reports what they wait:
// latency from each request's due time, the share over the latency limit,
// and how late the generator itself ran. These are the clock's own
// readings, not at the ruler's speed, and no end-to-end metric is taken
// from them: far below saturation the CPUs sleep between requests, most of
// a request's wait is the hypervisor waking one, and between identical runs
// on a busy host the median moved from 130 to 700 µs.
func openPhase(r *result, a args, sz srvSizing, mix [reqKinds]int, seconds float64) error {
	s, err := setupServer(sz, nil)
	if err != nil {
		return err
	}
	run, err := measureServer(s, a.seed, 0, newSrvModel(sz), mix, seconds, loopOpen, false)
	s.teardown()
	if err != nil {
		return err
	}
	var all hist
	for _, g := range run.gens {
		for i := 0; i < nSlices; i++ {
			all.merge(&g.all.lat[i])
		}
	}
	r.layer("openloop.rate_req_s", float64(run.reqs)/seconds)
	r.layer("openloop.lat_p50_us", all.quantile(0.5)/1e3)
	r.layer("openloop.lat_p99_us", all.quantile(0.99)/1e3)
	r.layer("openloop.over_limit_share", ratio(run.overTime, run.reqs))
	r.layer("loadgen.late_p99_us", run.lateP99().Median)
	r.Attempted, r.Failed = r.Attempted+run.ops, r.Failed+run.failed
	r.Correct = r.Failed == 0
	if rate := float64(run.reqs) / seconds; rate < 0.98*sz.openRate {
		r.Notes = append(r.Notes, fmt.Sprintf("open loop achieved %.0f req/s of the %.0f offered", rate, sz.openRate))
	}
	return nil
}

// traceServer is the traced half of a server workload: the same request
// streams over TCP again with spans around the client's encode, flush,
// wait and decode; straight into the engine; and through the wire codec
// alone. Each replay runs on a freshly preloaded store for a third of the
// measured phase's length.
func traceServer(r *result, a args, sz srvSizing, mix [reqKinds]int, run *srvRun, cal calibration) error {
	seconds := a.seconds / 3
	f := newTraceFile(r)

	s, err := setupServer(sz, nil)
	if err != nil {
		return err
	}
	traced, err := measureServer(s, a.seed, 0, newSrvModel(sz), mix, seconds, loopClosed, true)
	s.teardown()
	if err != nil {
		return err
	}
	tcp := newTracer(nil, nil)
	for _, g := range traced.gens {
		tcp.merge(g.tr)
		tcp.merge(g.rtr)
	}
	f.add("tcp-client", tcp)
	// A closed loop shows tracing overhead as lost throughput.
	tcpCPU := float64(run.b.cpuNS-run.a.cpuNS) / 1e3 / float64(run.ops)
	r.layer("trace.overhead_share", 1-(float64(traced.ops)/seconds)/(float64(run.ops)/a.seconds))

	s, err = setupServer(sz, nil)
	if err != nil {
		return err
	}
	engineCPU, etr, err := directEngine(s.kv, a.seed, sz, mix, seconds)
	s.teardown()
	if err != nil {
		return err
	}
	f.add("direct-engine", etr)
	r.layer("shard.engine_cpu_us_per_op", engineCPU)
	r.layer("server.self_cpu_us_per_op", tcpCPU-engineCPU-cal.cpuPerOp)

	if sz.openRate > 0 {
		if err := openPhase(r, a, sz, mix, seconds); err != nil {
			return err
		}
	}

	enc, dec, allocs, err := wireCodec(a.seed, sz, mix, 200_000)
	if err != nil {
		return err
	}
	r.layer("wire.encode_ns_req", enc)
	r.layer("wire.decode_ns_req", dec)
	r.layer("wire.allocs_per_frame", allocs)

	// The ledger is in CPU µs per op: the whole process's CPU over the TCP
	// run, split by what the same streams cost at each entry point below
	// it. The server's row is what is left, so the rows add up by
	// construction; kv-write's ledger is the one that is checked.
	opsPerReq := float64(run.ops) / float64(run.reqs)
	f.Ledger = []ledgerRow{
		{"generator + client + loopback (vs stub)", cal.cpuPerOp * 1e3, 0, "generator CPU against the stub listener"},
		{"server (conn, gate, pipelines, wire)", (tcpCPU - engineCPU - cal.cpuPerOp) * 1e3, 0, "TCP run − direct engine − generator"},
		{"shard engine and below", engineCPU * 1e3, ratio(run.sim(sz).simNS(), run.ops), "same streams into KV.SubmitShard/GetInto/Scan"},
		{"of which wire codec", (enc + dec) / opsPerReq, 0, "Append* and ReadFrame+ParseRequest alone, requests only"},
	}
	f.LedgerOpNS = tcpCPU * 1e3
	f.LedgerSumNS = f.LedgerOpNS
	return f.write()
}
