package shard

import (
	"bytes"
	"sync"
	"time"

	"fasp/internal/btree"
	"fasp/internal/obsv"
	"fasp/internal/pager"
)

// The read path: every read walks the committed snapshot.
//
// The paper's slot header is the per-page atomic commit mark, and the
// commit schemes checkpoint eagerly, so the committed page image is always
// consistent: a reader needs the committed snapshot, never the writer's
// transaction. Every read — a Get, each chunk of a scan, Count, the defrag
// measurement — is a btree.View walk over pager.Store's PeekCommitted. It
// never touches the clock, the cache overlay or the crash injector, so
// reads add no crash points and leave the golden determinism files
// bit-identical. The only hazard left is reading WHILE a commit is
// installing headers, and one read-write gate per shard (s.gate) rules it
// out:
//
//   - A read step (one Get descent, one scan chunk) holds the gate's read
//     side. Every mutator (group-commit apply, heal, crash, restore)
//     brackets its critical section with beginMutate / endMutate, the
//     write side, while holding s.mu. A writer that finds readers in parks
//     until the last one leaves; a reader that finds a commit in progress
//     parks until it ends. Neither spins, and the race detector sees a
//     happens-before edge in both directions.
//   - The health flags (crashed, degraded, downCause) and the store
//     (be.Store) change only inside the write side, so a reader inside the
//     read side reads them directly and sees a completed state, never a
//     mid-mutation one. An unhealthy shard is refused there too:
//     unavailable() gives the canonical error (ErrCrashed, wrapped
//     ErrShardDown) and the step ends without a walk.
//
// The gate is not reentrant: a goroutine that holds the read side and asks
// for it again waits behind any writer queued in between, for ever. So no
// callback runs inside a read step — emit and scan callbacks run after
// closeView — and measureFrag, which runs inside the write side, binds its
// view without the gate.

const (
	// scanChunkPairs / scanChunkBytes bound one scan chunk — the longest a
	// scan may hold the read gate (and hence stall a writer behind it)
	// before releasing it and resuming past its last key.
	scanChunkPairs = 256
	scanChunkBytes = 32 << 10
)

// beginMutate takes the write side of the read gate: it parks until every
// reader has left and keeps new ones out until endMutate. Callers hold s.mu.
func (s *state) beginMutate() { s.gate.Lock() }

// endMutate releases the write side of the read gate.
func (s *state) endMutate() { s.gate.Unlock() }

var viewPool = sync.Pool{New: func() any { return btree.NewView() }}

// bindView takes a pooled view bound to st's committed snapshot.
func bindView(st pager.Store) *btree.View {
	v := viewPool.Get().(*btree.View)
	v.Reset(st)
	return v
}

// putView unbinds v and returns it to the pool.
func putView(v *btree.View) {
	v.Release()
	viewPool.Put(v)
}

// openView binds a view for one read step — a Get, or one scan chunk. It
// takes the read side of the gate, parking behind a commit in progress
// (queued reports that it had to). An unavailable shard leaves the gate
// again and returns its canonical error and no view. End the step with
// closeView.
func (s *state) openView() (v *btree.View, queued bool, err error) {
	if queued = !s.gate.TryRLock(); queued {
		s.gate.RLock()
	}
	if err := s.unavailable(); err != nil {
		s.gate.RUnlock()
		return nil, queued, err
	}
	return bindView(s.be.Store), queued, nil
}

// closeView ends a read step openView began.
func (s *state) closeView(v *btree.View) {
	putView(v)
	s.gate.RUnlock()
}

// Get reads a key from its shard.
func (e *Engine) Get(key []byte) ([]byte, bool, error) {
	return e.shards[e.ShardFor(key)].get(key, nil)
}

// GetInto is Get with a caller-supplied destination buffer: the value is
// appended to dst[:0], so a steady-state reader with a large enough buffer
// performs no heap allocation.
func (e *Engine) GetInto(key, dst []byte) ([]byte, bool, error) {
	return e.shards[e.ShardFor(key)].get(key, dst)
}

// get serves one point read: one View walk (see openView), whose simulated
// cost — what a transaction's arena loads would have charged — it reports
// to the recorder, with the path it took.
func (s *state) get(key, dst []byte) ([]byte, bool, error) {
	var t0 time.Time
	if s.rec != nil {
		t0 = time.Now()
	}
	v, queued, err := s.openView()
	s.rec.ObserveReadPath(err == nil, queued)
	if err != nil {
		return nil, false, err
	}
	val, ok, err := v.Get(key, dst)
	cost := v.Cost()
	s.closeView(v)
	if s.rec != nil {
		s.rec.ObserveWall(obsv.OpGet, int32(s.id), time.Since(t0).Nanoseconds())
		s.rec.ObserveSim(obsv.OpGet, cost)
	}
	return val, ok, err
}

// --- Chunked range reads --------------------------------------------------

// pairRef locates one record inside a scanScratch buffer. Offsets, not
// slices: buf reallocates as it grows, and slices into it would dangle.
type pairRef struct {
	koff, klen, voff, vlen int
}

// scanScratch accumulates one chunk of scan results: keys and values append
// to one flat buffer, pairs index into it. Scratches recycle through
// scratchPool, so steady-state scanning stops allocating once the pool has
// warmed up — the fix for collect's per-record append([]byte(nil), ...)
// churn.
type scanScratch struct {
	refs []pairRef
	buf  []byte
}

func (sc *scanScratch) reset() {
	sc.refs = sc.refs[:0]
	sc.buf = sc.buf[:0]
}

// sizeHint pre-sizes the ref slice from the shard's record-count estimate,
// clamped to one chunk.
func (sc *scanScratch) sizeHint(recs int64) {
	n := int(recs)
	if n <= 0 {
		return
	}
	if n > scanChunkPairs {
		n = scanChunkPairs
	}
	if cap(sc.refs) < n {
		sc.refs = make([]pairRef, 0, n)
	}
}

func (sc *scanScratch) add(k, v []byte) {
	ko := len(sc.buf)
	sc.buf = append(sc.buf, k...)
	vo := len(sc.buf)
	sc.buf = append(sc.buf, v...)
	sc.refs = append(sc.refs, pairRef{ko, len(k), vo, len(v)})
}

// full reports whether the chunk has reached pairs pairs or the byte bound.
func (sc *scanScratch) full(pairs int) bool {
	return len(sc.refs) >= pairs || len(sc.buf) >= scanChunkBytes
}

func (sc *scanScratch) len() int { return len(sc.refs) }

func (sc *scanScratch) pair(i int) (k, v []byte) {
	r := sc.refs[i]
	return sc.buf[r.koff : r.koff+r.klen], sc.buf[r.voff : r.voff+r.vlen]
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

func getScratch() *scanScratch {
	sc := scratchPool.Get().(*scanScratch)
	sc.reset()
	return sc
}

func putScratch(sc *scanScratch) { scratchPool.Put(sc) }

// scanChunks streams one shard's records in [lo, hi] to emit in bounded
// chunks, in the given direction. Each chunk is one read step (openView):
// it walks the committed snapshot inside the read gate, and the next chunk
// resumes exclusively past its last key. emit owns each scratch it
// receives (return it with putScratch) and is called after the step has
// closed, outside the read gate, so it may read the shard again;
// returning false stops the scan. No emit call follows an error. limit > 0 is the
// most pairs the caller will consume: the scan ends after that many, so a
// short page reads a short chunk, not a full one. ScanShard, the
// engine-scan producers and Count all funnel through here — the single
// read-only range entry point.
func (s *state) scanChunks(lo, hi []byte, reverse bool, limit int, emit func(*scanScratch) bool) error {
	b := btree.Bounds{Lo: lo, Hi: hi, Reverse: reverse}
	var resume []byte
	for {
		chunk := scanChunkPairs
		if limit > 0 && limit < chunk {
			chunk = limit
		}
		v, _, err := s.openView()
		if err != nil {
			return err
		}
		sc := getScratch()
		sc.sizeHint(s.recs.Load())
		full := false
		err = v.Scan(b, func(k, val []byte) bool {
			sc.add(k, val)
			if sc.full(chunk) {
				full = true
				return false
			}
			return true
		})
		cost := v.Cost()
		s.closeView(v)
		if err != nil {
			putScratch(sc)
			return err
		}
		if s.rec != nil && cost > 0 {
			s.rec.ObserveSim(obsv.OpScan, cost)
		}
		if full {
			// Copy the resume key before emit takes scratch ownership.
			k, _ := sc.pair(sc.len() - 1)
			resume = append(resume[:0], k...)
			if reverse {
				b.Hi, b.HiX = resume, true
			} else {
				b.Lo, b.LoX = resume, true
			}
		}
		if sc.len() == 0 {
			putScratch(sc)
			return nil
		}
		s.scanPairs.Add(int64(sc.len()))
		if limit > 0 {
			if limit -= sc.len(); limit == 0 {
				full = false // the caller's budget is spent: this chunk is the last
			}
		}
		if !emit(sc) || !full {
			return nil
		}
	}
}

// ScanShard visits shard i's records in [lo, hi] in ascending order —
// inspection tooling and the golden tests read per-shard contents. It runs
// on the same chunked read-only entry point as the engine-scan producers,
// so the two paths cannot diverge. Key/value slices are valid only during
// the callback.
func (e *Engine) ScanShard(i int, lo, hi []byte, fn func(k, v []byte) bool) error {
	stopped := false
	return e.shards[i].scanChunks(lo, hi, false, 0, func(sc *scanScratch) bool {
		for j := 0; j < sc.len(); j++ {
			k, v := sc.pair(j)
			if !fn(k, v) {
				stopped = true
				break
			}
		}
		putScratch(sc)
		return !stopped
	})
}

// --- Parallel streaming merge ---------------------------------------------

// chunkMsg is one producer→merge message: a chunk of records, or the
// terminal marker (sc == nil) carrying the shard's scan error (nil error =
// clean end of range).
type chunkMsg struct {
	sc  *scanScratch
	err error
}

// produce streams one shard's records (at most limit of them, when limit >
// 0) to the merge as bounded chunks, aborting promptly once the merge
// closes stop.
func (s *state) produce(lo, hi []byte, reverse bool, limit int, out chan<- chunkMsg, stop <-chan struct{}) {
	err := s.scanChunks(lo, hi, reverse, limit, func(sc *scanScratch) bool {
		select {
		case out <- chunkMsg{sc: sc}:
			return true
		case <-stop:
			putScratch(sc)
			return false
		}
	})
	select {
	case out <- chunkMsg{err: err}:
	case <-stop:
	}
}

// shardCursor is the merge's streaming view of one shard's chunk sequence.
type shardCursor struct {
	ch   chan chunkMsg
	sc   *scanScratch
	idx  int
	done bool
	err  error
}

// fill ensures the cursor points at a record, or marks it done (possibly
// with the shard's error).
func (c *shardCursor) fill() {
	for !c.done && (c.sc == nil || c.idx >= c.sc.len()) {
		if c.sc != nil {
			putScratch(c.sc)
			c.sc, c.idx = nil, 0
		}
		m := <-c.ch
		if m.sc == nil {
			c.done = true
			c.err = m.err
			return
		}
		c.sc = m.sc
	}
}

func (c *shardCursor) key() []byte {
	k, _ := c.sc.pair(c.idx)
	return k
}

// scan runs the k-way merge over per-shard streams. Each shard's records
// are produced by its own goroutine in bounded chunks (read steps, see
// openView), so collection overlaps across shards and with the
// merge, and nothing is fully materialised: once fn returns false the merge
// stops pulling and the producers abort at their next send. The merge
// output is byte-identical to the former sequential collect-then-merge.
// Key/value slices passed to fn are valid only during the callback; a shard
// error surfaces as soon as the merge needs that shard's next record.
//
// limit > 0 ends the scan after limit pairs. No shard can contribute more
// than that to the merge, so each producer stops there too: a page of 16
// costs 16 pairs per shard, not one full chunk each.
func (e *Engine) scan(lo, hi []byte, reverse bool, limit int, fn func(k, v []byte) bool) error {
	e.cfg.Recorder.ObserveScanFanout(len(e.shards))
	stop := make(chan struct{})
	defer close(stop)
	curs := make([]*shardCursor, len(e.shards))
	for i, s := range e.shards {
		c := &shardCursor{ch: make(chan chunkMsg, 1)}
		curs[i] = c
		go s.produce(lo, hi, reverse, limit, c.ch, stop)
	}
	for _, c := range curs {
		c.fill()
		if c.err != nil {
			return c.err
		}
	}
	// Linear-probe merge: shard counts are small (≤ a few dozen), so a heap
	// would not pay for itself.
	for {
		best := -1
		for i, c := range curs {
			if c.done {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			cm := bytes.Compare(c.key(), curs[best].key())
			if (!reverse && cm < 0) || (reverse && cm > 0) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		c := curs[best]
		k, v := c.sc.pair(c.idx)
		c.idx++
		if !fn(k, v) {
			return nil
		}
		if limit > 0 {
			if limit--; limit == 0 {
				return nil
			}
		}
		c.fill()
		if c.err != nil {
			return c.err
		}
	}
}

// Count sums the record counts of all shards, walking the shards in
// parallel and returning on the first error (the buffered channel lets the
// laggards finish after an early return without leaking goroutines).
func (e *Engine) Count() (int, error) {
	type result struct {
		n   int
		err error
	}
	ch := make(chan result, len(e.shards))
	for _, s := range e.shards {
		go func(s *state) {
			n, err := s.countRecords()
			ch <- result{n, err}
		}(s)
	}
	total := 0
	for range e.shards {
		r := <-ch
		if r.err != nil {
			return 0, r.err
		}
		total += r.n
	}
	return total, nil
}

// countRecords counts one shard's records through the shared chunked entry
// point, in bounded read steps.
func (s *state) countRecords() (int, error) {
	n := 0
	err := s.scanChunks(nil, nil, false, 0, func(sc *scanScratch) bool {
		n += sc.len()
		putScratch(sc)
		return true
	})
	return n, err
}
