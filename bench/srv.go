package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fasp"
	"fasp/internal/obsv"
	"fasp/internal/server"
	"fasp/internal/server/client"
	"fasp/internal/shard"
)

// The two server workloads run the product's server in this process behind
// a real TCP loopback listener, on a 4-shard FAST+ store, with at most
// nproc connections.
//
// server-write preloads 200k records of 8+64 bytes — about 12 MiB of pages
// per shard, six times each shard's 2 MiB emulated cache. server-mixed
// keeps 16k records, about 1 MiB per shard: it fits the cache, so the read
// path runs without PM misses and what is left is the server's own latency.
// Its set-up is short, so it is timed more often.
var (
	srvWriteFull = srvSizing{shards: 4, conns: 2, keys: 200_000, valLen: 64, depth: 16, batch: 8,
		setups: 3, calibrate: 1, probe: 1000}
	srvMixedFull = srvSizing{shards: 4, conns: 2, keys: 16_384, valLen: 64, depth: 1, scanLen: 16, zipf: 0.99,
		sessions: true, openRate: 5_000, setups: 7, calibrate: 1, probe: 1000}

	// Cumulative percentages in reqKinds order (put, batch, get, scan).
	srvWriteMix = [reqKinds]int{90, 100, 100, 100}
	srvMixedMix = [reqKinds]int{15, 15, 95, 100}
)

// srvSetup is a preloaded store with the server listening in front of it.
type srvSetup struct {
	kv   *fasp.KV
	srv  *server.Server
	addr string
	// stopServer kills the server (no drain: its connections just close)
	// and waits for the accept loop to return. It may be called again.
	stopServer func()
}

func setupServer(sz srvSizing, pause func()) (srvSetup, error) {
	kv, err := fasp.OpenKV(fasp.Options{Shards: sz.shards})
	if err != nil {
		return srvSetup{}, err
	}
	const chunk = 4096
	ops := make([]shard.Op, 0, chunk)
	for id := 0; id < sz.keys; {
		ops = ops[:0]
		for ; len(ops) < chunk && id < sz.keys; id++ {
			kvb := make([]byte, keyLen+sz.valLen)
			putKey(kvb, uint64(id))
			fillValue(kvb[keyLen:], uint64(id), 1)
			ops = append(ops, shard.Op{Kind: shard.OpInsert, Key: kvb[:keyLen], Val: kvb[keyLen:]})
		}
		for _, err := range kv.ApplyBatch(ops) {
			if err != nil {
				kv.Close()
				return srvSetup{}, fmt.Errorf("preload: %w", err)
			}
		}
		if pause != nil {
			pause()
		}
	}
	s := srvSetup{kv: kv, srv: server.New(kv, server.Config{NoMetricsSource: true})}
	if s.addr, err = s.srv.Listen("127.0.0.1:0"); err != nil {
		kv.Close()
		return srvSetup{}, err
	}
	served := make(chan error, 1)
	go func() { served <- s.srv.Serve() }()
	s.stopServer = sync.OnceFunc(func() {
		s.srv.Kill()
		<-served
	})
	cl, err := client.Dial(s.addr)
	if err == nil {
		err = cl.Ping()
		cl.Close()
	}
	if err != nil {
		s.teardown()
		return srvSetup{}, fmt.Errorf("server does not answer: %w", err)
	}
	return s, nil
}

// teardown stops the server and closes the store.
func (s srvSetup) teardown() {
	s.stopServer()
	s.kv.Close()
}

// srvSnap is every counter the sharded store and the server publish, read
// at one instant.
type srvSnap struct {
	sim     simSnap // summed over shards
	shardNS []int64 // each shard's simulated clock
	eng     shard.Stats
	kv      fasp.Metrics
	srv     obsv.ServerSnapshot
	rt      runtimeSnap
	cpuNS   int64
}

func snapServer(s srvSetup) (srvSnap, error) {
	var out srvSnap
	for i := 0; i < s.kv.Shards(); i++ {
		st, err := s.kv.ShardStore(i)
		if err != nil {
			return out, err
		}
		one := snapStore(st, arenaOf(st))
		out.shardNS = append(out.shardNS, one.now)
		if i == 0 {
			out.sim = one
		} else {
			out.sim = out.sim.add(one)
		}
	}
	out.eng, out.kv, out.srv = s.kv.EngineStats(), s.kv.Metrics(), s.srv.Snapshot()
	out.rt, out.cpuNS = readRuntime(), cpuNS()
	return out, nil
}

// usedBytes is the page space the shards have allocated.
func usedBytes(kv *fasp.KV) (int64, error) {
	var n int64
	for i := 0; i < kv.Shards(); i++ {
		st, err := kv.ShardStore(i)
		if err != nil {
			return 0, err
		}
		n += pageBytes(st)
	}
	return n, nil
}

// loopKind is how a connection's generator paces itself.
type loopKind int

const (
	loopClosed loopKind = iota // sz.depth in flight: pipelined through the product's client, or synchronous
	loopOpen                   // sz.openRate offered, whatever the server does
)

// generate runs one generator per connection against addr for the window
// and returns what each measured. The closed loops tick the ruler into rul
// (nil: no ruler); the open loop never does — its latency is mostly that of
// waking an idle CPU, which the ruler does not measure.
func generate(addr string, seed int64, attempt int, m *srvModel, mix [reqKinds]int, w window, kind loopKind, verify, traced bool, rul *rulerRec) ([]*genStats, error) {
	sz := m.sz
	gens := make([]*genStats, sz.conns)
	errs := make([]error, sz.conns)
	var wg sync.WaitGroup
	for c := 0; c < sz.conns; c++ {
		g := &genStats{}
		gens[c] = g
		if traced {
			g.tr, g.rtr = newTracer(nil, nil), newTracer(nil, nil)
		}
		// Each attempt draws a fresh stream and opens a fresh session: a
		// session's sequence tokens may not be reused.
		st := newSrvStream(seed, m, c, uint64(attempt*sz.conns+c), mix)
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case kind == loopOpen:
				errs[c] = openLoop(addr, st, w, sz.openRate/float64(sz.conns), verify, g)
			case sz.depth == 1:
				errs[c] = syncLoop(addr, st, w, verify, g, rul)
			default:
				errs[c] = closedLoop(addr, st, w, sz.depth, verify, g, rul)
			}
		}()
	}
	wg.Wait()
	return gens, errors.Join(errs...)
}

// calibration is the generator measured alone, against the stub.
type calibration struct {
	maxRate   float64 // requests per second
	cpuPerOp  float64 // generator CPU µs per op, stub included
	cpuPerReq float64
}

func calibrate(seed int64, sz srvSizing, mix [reqKinds]int) (calibration, error) {
	stub, err := startStub(sz.valLen)
	if err != nil {
		return calibration{}, err
	}
	defer stub.stop()
	cpu0 := cpuNS()
	w := newWindow(sz.calibrate)
	gens, err := generate(stub.addr(), seed, 0, newSrvModel(sz), mix, w, loopClosed, false, false, nil)
	if err != nil {
		return calibration{}, fmt.Errorf("generator calibration: %w", err)
	}
	cpu := float64(cpuNS()-cpu0) / 1e3
	var reqs, ops int64
	for _, g := range gens {
		reqs += g.reqs
		ops += g.ops
	}
	return calibration{float64(reqs) / time.Since(w.start).Seconds(), cpu / float64(ops), cpu / float64(reqs)}, nil
}

// probeRTT times depth-1 round trips on an idle server: the floor under
// every latency the workload reports.
func probeRTT(addr string, n int) (float64, error) {
	cl, err := client.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	var h hist
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := cl.Ping(); err != nil {
			return 0, err
		}
		h.add(int64(time.Since(t0)))
	}
	return h.quantile(0.5) / 1e3, nil
}

// invalidRun is the error of a run the benchmark refuses to report: the
// generator, not the server, set its numbers.
type invalidRun string

func (e invalidRun) Error() string { return "invalid run: " + string(e) }

// srvRun is one measured phase of a server workload.
type srvRun struct {
	w        window
	gens     []*genStats
	cpu      cpuMarks
	rul      rulerRec
	a, b     srvSnap
	reqs     int64
	ops      int64
	writes   int64
	failed   int64
	overTime int64
}

func measureServer(s srvSetup, seed int64, attempt int, m *srvModel, mix [reqKinds]int, seconds float64, kind loopKind, traced bool) (*srvRun, error) {
	run := &srvRun{}
	var err error
	if run.a, err = snapServer(s); err != nil {
		return nil, err
	}
	run.w = newWindow(seconds)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run.cpu.sample(run.w)
	}()
	run.gens, err = generate(s.addr, seed, attempt, m, mix, run.w, kind, true, traced, &run.rul)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if run.b, err = snapServer(s); err != nil {
		return nil, err
	}
	for _, g := range run.gens {
		run.reqs += g.reqs
		run.ops += g.ops
		run.failed += g.failed
		run.overTime += g.overTime
		for _, k := range []int{reqPut, reqBatch} {
			for i := range g.kind[k].ops {
				run.writes += g.kind[k].ops[i]
			}
		}
	}
	return run, nil
}

// lateP99 is how far behind schedule the open-loop senders ran: the 99th
// percentile of (send time − due time) in each slice, in µs, summarised
// over the slices like every other wall-clock number — so the verdict is
// about the generator, not about one stall of the box it shares.
func (run *srvRun) lateP99() summary {
	var per []float64
	for i := 0; i < nSlices; i++ {
		var h hist
		for _, g := range run.gens {
			h.merge(&g.late[i])
		}
		if h.n > 0 {
			per = append(per, h.quantile(0.99)/1e3)
		}
	}
	return summarise(per)
}

// invalid reports why the run's numbers would be the generator's, not the
// server's, or nil: the pipelined generator alone (against the stub) must
// reach 3x the measured request rate. A synchronous client has no such
// rule: its own half of the round trip is part of what it waits for, by
// definition, and loadgen.cpu_us_per_req says how big that half is.
func (run *srvRun) invalid(sz srvSizing, cal calibration, seconds float64) error {
	reqRate := float64(run.reqs) / seconds
	if sz.depth > 1 && cal.maxRate < 3*reqRate {
		return invalidRun(fmt.Sprintf("generator headroom %.1fx (%.0f req/s alone, %.0f req/s measured) is under 3x", cal.maxRate/reqRate, cal.maxRate, reqRate))
	}
	return nil
}

// sim is the run's simulated-machine region: only writes run on the
// simulated machines (reads take the Peek path, which by design never
// advances a clock), so they are the ops simulated time is divided by.
func (run *srvRun) sim(sz srvSizing) simDelta {
	return simDelta{a: run.a.sim, b: run.b.sim, ops: run.writes, writes: run.writes,
		userBytes: run.writes * int64(keyLen+sz.valLen)}
}

func runServer(a args, name string, sz srvSizing, mix [reqKinds]int) (*result, error) {
	sz.conns = min(sz.conns, runtime.NumCPU())
	r := newResult(name, a.seed, a.seconds, a.trace)
	s, setup, err := timeSetups(sz.setups, func(pause func()) (srvSetup, error) { return setupServer(sz, pause) }, srvSetup.teardown)
	if err != nil {
		return nil, err
	}
	defer s.teardown()
	setup.emit(r)

	cal, err := calibrate(a.seed, sz, mix)
	if err != nil {
		return nil, err
	}
	rtt, err := probeRTT(s.addr, sz.probe)
	if err != nil {
		return nil, err
	}
	// A run the generator could not drive as specified is not a slow run:
	// it is measured again, and refused after three attempts.
	m := newSrvModel(sz)
	var run *srvRun
	for attempt := 0; ; attempt++ {
		if run, err = measureServer(s, a.seed, attempt, m, mix, a.seconds, loopClosed, false); err != nil {
			return nil, err
		}
		if err = run.invalid(sz, cal, a.seconds); err == nil {
			break
		}
		if attempt == 2 {
			return nil, err
		}
		r.Notes = append(r.Notes, "measured again: "+err.Error())
	}
	var recs []*sliceRec
	for _, g := range run.gens {
		recs = append(recs, &g.all)
	}
	wallMetrics(r, recs, &run.cpu, run.w, &run.rul)
	sim := run.sim(sz)
	sim.endToEnd(r)
	used, err := usedBytes(s.kv)
	if err != nil {
		return nil, err
	}
	model := m.kv()
	r.e2e("space_amp", summary{Median: float64(used) / float64(model.bytes)})

	s.stopServer()
	bad, recSim, recWall, err := crashCheck(s.kv, model, a.seed)
	if err != nil {
		return nil, err
	}
	r.Attempted, r.Failed = run.ops, run.failed+bad
	r.Correct = r.Failed == 0
	r.e2e("peak_rss_mb", summary{Median: peakRSSMiB()})

	if a.trace {
		sim.layers(r)
		run.layers(r, sz)
		r.layer("client.rtt_p50_us", rtt)
		r.layer("loadgen.max_rate_req_s", cal.maxRate)
		r.layer("loadgen.cpu_us_per_req", cal.cpuPerReq)
		r.layer("fasp.recover_sim_us", float64(recSim)/1e3)
		r.layer("fasp.recover_wall_ms", float64(recWall)/1e6)
		if err := traceServer(r, a, sz, mix, run, cal); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// histDelta is the region between two snapshots of one of the program's
// own histograms.
func histDelta(b, a obsv.HistSnapshot) obsv.HistSnapshot {
	for i := range b.Counts {
		b.Counts[i] -= a.Counts[i]
	}
	b.Count -= a.Count
	b.Sum -= a.Sum
	return b
}

// layers emits the shard, server, client and runtime metrics that come
// from the measured run's own counters and samples.
func (run *srvRun) layers(r *result, sz srvSizing) {
	a, b := run.a, run.b
	r.layer("shard.commit_width_mean", ratio(b.eng.Ops-a.eng.Ops, b.eng.Batches-a.eng.Batches))
	mail := histDelta(b.kv.MailDepth, a.kv.MailDepth)
	r.layer("shard.mail_depth_p50", float64(mail.Quantile(0.5)))
	r.layer("shard.mail_depth_p99", float64(mail.Quantile(0.99)))
	var maxNS, sumNS int64
	for i := range b.shardNS {
		d := b.shardNS[i] - a.shardNS[i]
		sumNS += d
		maxNS = max(maxNS, d)
	}
	r.layer("shard.sim_imbalance", ratio(maxNS*int64(len(b.shardNS)), sumNS))
	opt, locked := b.kv.GetOptimistic-a.kv.GetOptimistic, b.kv.GetLocked-a.kv.GetLocked
	r.layer("shard.get_optimistic_share", ratio(opt, opt+locked))
	r.layer("shard.get_retries_per_kget", 1e3*ratio(b.kv.GetRetries-a.kv.GetRetries, opt+locked))

	r.layer("server.submit_width_mean", histDelta(b.srv.Coalesce, a.srv.Coalesce).Mean())
	r.layer("server.shard_round_width_mean", histDelta(b.srv.ShardCoalesce, a.srv.ShardCoalesce).Mean())
	r.layer("server.pipe_occupancy_mean", histDelta(b.srv.PipeOccupancy, a.srv.PipeOccupancy).Mean())
	r.layer("server.busy_share", ratio(b.srv.RejectBusy-a.srv.RejectBusy, run.reqs))
	r.layer("server.bytes_in_per_op", ratio(b.srv.BytesIn-a.srv.BytesIn, run.ops))
	r.layer("server.bytes_out_per_op", ratio(b.srv.BytesOut-a.srv.BytesOut, run.ops))
	r.layer("server.dedup_cache_bytes", float64(b.srv.DedupCacheBytes))

	var all hist
	kinds := [reqKinds]hist{}
	for _, g := range run.gens {
		for i := 0; i < nSlices; i++ {
			all.merge(&g.all.lat[i])
			for k := range kinds {
				kinds[k].merge(&g.kind[k].lat[i])
			}
		}
	}
	kinds[reqPut].merge(&kinds[reqBatch])
	for k, name := range map[int]string{reqGet: "get", reqPut: "put", reqScan: "scan"} {
		r.layer("client."+name+"_p50_us", kinds[k].quantile(0.5)/1e3)
		r.layer("client."+name+"_p99_us", kinds[k].quantile(0.99)/1e3)
	}
	r.layer("client.lat_p99_us", all.quantile(0.99)/1e3)
	r.layer("client.lat_p999_us", all.quantile(0.999)/1e3)
	r.layer("client.over_limit_share", ratio(run.overTime, run.reqs))
	b.rt.layers(r, a.rt, run.ops)
}
