package main

import (
	"fmt"
	"time"

	"fasp"
	"fasp/internal/pmem"
	"fasp/internal/shard"
)

// kvSizing sizes the kv-write workload. The full size preloads about
// 26 MiB of pages — thirteen times the 2 MiB emulated cache — so leaf pages
// miss and only the upper tree levels stay cached. Churn fragments the
// pages: the store levels off near 2.8 bytes of pages per user byte, 42 MiB
// of the default 64 MiB page space, so a run of any length fits. (Twice the
// records run out of pages after 1.3 million ops.)
type kvSizing struct {
	preload        int   // records loaded before the measured phase
	simOps         int64 // ops in the fixed simulated-clock window
	valMin, valMax int   // value length range, uniform
	setups         int   // timed set-ups per run (median reported)
}

var kvFull = kvSizing{preload: 100_000, simOps: 200_000, valMin: 32, valMax: 256, setups: 3}

// kvTarget is an entry point the churn can be driven into: the fasp.KV
// facade and the bare btree.Tree both fit.
type kvTarget interface {
	Insert(key, val []byte) error
	Put(key, val []byte) error
	Delete(key []byte) error
}

const (
	kvInsert = iota
	kvUpdate
	kvDelete
)

// kvChurn is the kv-write op stream: 35 % insert of a new key, 30 % update
// of a live key with a freshly drawn value length (so records move and
// pages fragment), 35 % delete of a live key; keys uniform over the live
// set. It implements stepper against any kvTarget.
type kvChurn struct {
	r      *rng
	m      *kvModel
	sz     kvSizing
	target kvTarget
	nextID uint32

	kind   int
	id     uint32
	ver    uint32
	key    [keyLen]byte
	val    []byte
	valBuf []byte
}

func newKVChurn(seed int64, sz kvSizing) *kvChurn {
	return &kvChurn{r: newRNG(seed, 1), m: &kvModel{}, sz: sz, valBuf: make([]byte, sz.valMax)}
}

func (c *kvChurn) drawLen() int { return c.sz.valMin + c.r.intn(c.sz.valMax-c.sz.valMin+1) }

func (c *kvChurn) prepare() {
	u := c.r.intn(100)
	switch {
	case u < 35 || len(c.m.live) == 0:
		c.kind, c.id, c.ver = kvInsert, c.nextID, 1
		c.nextID++
	case u < 65:
		c.kind, c.id = kvUpdate, c.m.live[c.r.intn(len(c.m.live))]
		c.ver = c.m.ver[c.id] + 1
	default:
		c.kind, c.id = kvDelete, c.m.live[c.r.intn(len(c.m.live))]
	}
	putKey(c.key[:], uint64(c.id))
	c.val = c.valBuf[:0]
	if c.kind != kvDelete {
		c.val = c.valBuf[:c.drawLen()]
		fillValue(c.val, uint64(c.id), c.ver)
	}
}

func (c *kvChurn) exec() error {
	switch c.kind {
	case kvInsert:
		return c.target.Insert(c.key[:], c.val)
	case kvUpdate:
		return c.target.Put(c.key[:], c.val)
	}
	return c.target.Delete(c.key[:])
}

func (c *kvChurn) ack() {
	if c.kind == kvDelete {
		c.m.del(c.id)
	} else {
		c.m.put(c.id, c.ver, len(c.val))
	}
}

func (c *kvChurn) isWrite() bool  { return true }
func (c *kvChurn) userBytes() int { return keyLen + len(c.val) }

// preload inserts sz.preload fresh records through apply, which commits a
// chunk of ops in groups of shard.DefaultMaxBatch — the same grouping at
// the facade (KV.ApplyBatch) and on a bare tree (shard.ApplyOps), so both
// reach the measured phase in the identical simulated state.
func (c *kvChurn) preload(apply func(ops []shard.Op) []error, pause func()) error {
	const chunk = 4096
	ops := make([]shard.Op, 0, chunk)
	for done := 0; done < c.sz.preload; {
		ops = ops[:0]
		for ; len(ops) < chunk && done < c.sz.preload; done++ {
			id := c.nextID
			c.nextID++
			key := make([]byte, keyLen)
			putKey(key, uint64(id))
			val := make([]byte, c.drawLen())
			fillValue(val, uint64(id), 1)
			ops = append(ops, shard.Op{Kind: shard.OpInsert, Key: key, Val: val})
			c.m.put(id, 1, len(val))
		}
		for _, err := range apply(ops) {
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
		if pause != nil {
			pause()
		}
	}
	return nil
}

// kvSetup is a preloaded store with the churn bound to it.
type kvSetup struct {
	kv    *fasp.KV
	churn *kvChurn
}

func setupKV(seed int64, sz kvSizing, opts fasp.Options, pause func()) (kvSetup, error) {
	kv, err := fasp.OpenKV(opts)
	if err != nil {
		return kvSetup{}, err
	}
	c := newKVChurn(seed, sz)
	c.target = kv
	if err := c.preload(kv.ApplyBatch, pause); err != nil {
		kv.Close()
		return kvSetup{}, err
	}
	return kvSetup{kv, c}, nil
}

func snapKV(kv *fasp.KV) simSnap {
	st := kv.RawStore()
	return snapStore(st, arenaOf(st))
}

// arenaOf returns the PM arena behind a fast or wal store.
func arenaOf(st any) *pmem.Arena { return st.(interface{ Arena() *pmem.Arena }).Arena() }

// crashCheck is the end-of-run oracle for an embedded KV: the model against
// the live store, a structural validation, then power failure with half
// the dirty lines evicted, recovery, and the model against what survived.
// It returns mismatches found and the recovery's cost on both clocks.
func crashCheck(kv *fasp.KV, m *kvModel, seed int64) (bad int64, recoverSimNS int64, recoverWall time.Duration, err error) {
	if bad, err = m.check(kv); err != nil {
		return
	}
	if err = kv.Validate(); err != nil {
		return
	}
	sim0 := kv.EngineStats().SimSumNS
	kv.Crash(fasp.CrashOptions{Seed: seed, EvictProb: 0.5})
	t0 := time.Now()
	if err = kv.ReopenKV(); err != nil {
		return
	}
	recoverWall = time.Since(t0)
	recoverSimNS = kv.EngineStats().SimSumNS - sim0
	after, err := m.check(kv)
	return bad + after, recoverSimNS, recoverWall, err
}

func runKVWrite(a args, sz kvSizing) (*result, error) {
	r := newResult("kv-write", a.seed, a.seconds, a.trace)
	set, setup, err := timeSetups(sz.setups,
		func(pause func()) (kvSetup, error) { return setupKV(a.seed, sz, fasp.Options{}, pause) },
		func(s kvSetup) { s.kv.Close() })
	if err != nil {
		return nil, err
	}
	defer set.kv.Close()
	setup.emit(r)

	var spaceAmp float64
	rt0 := readRuntime()
	w := newWindow(a.seconds)
	run := runEmbedded(set.churn, w, sz.simOps,
		func() simSnap { return snapKV(set.kv) },
		func() {
			spaceAmp = float64(pageBytes(set.kv.RawStore())) / float64(set.churn.m.bytes)
		})
	rt1 := readRuntime()
	wallMetrics(r, []*sliceRec{&run.rec}, &run.cpu, w, &run.rul)
	run.sim.endToEnd(r)
	r.e2e("space_amp", summary{Median: spaceAmp})

	bad, recSim, recWall, err := crashCheck(set.kv, set.churn.m, a.seed)
	if err != nil {
		return nil, err
	}
	r.Attempted, r.Failed = run.attempted, run.failed+bad
	r.Correct = r.Failed == 0
	r.e2e("peak_rss_mb", summary{Median: peakRSSMiB()})

	if a.trace {
		run.sim.layers(r)
		rt1.layers(r, rt0, run.attempted)
		r.layer("pmem.sim_ns_per_host_ns", ratio(run.sim.simNS(), run.simWallNS))
		r.layer("fasp.recover_sim_us", float64(recSim)/1e3)
		r.layer("fasp.recover_wall_ms", float64(recWall)/1e6)
		if err := traceKVWrite(r, a, sz, run); err != nil {
			return nil, err
		}
	}
	return r, nil
}
