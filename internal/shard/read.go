package shard

import (
	"bytes"
	"runtime"
	"sync"
	"time"

	"fasp/internal/btree"
	"fasp/internal/obsv"
	"fasp/internal/pager"
)

// Optimistic concurrent read path.
//
// The paper's slot header is the per-page atomic commit mark: a reader that
// observes a consistent committed header observes a consistent page. That
// is exactly the invariant a latch-free read protocol needs — the only
// remaining hazard is reading WHILE a commit is installing headers. The
// shard engine closes that window with an epoch-pinned seqlock:
//
//   - s.seq is the writer's sequence: even = quiescent, odd = mutating.
//     Every mutator (group-commit apply, heal, crash, restore — and the
//     locked read fallback, whose pager transaction mutates the simulated
//     cache and clock) brackets its critical section with beginMutate /
//     endMutate while holding s.mu.
//   - A reader registers in s.readers, then re-checks s.seq: if it changed
//     (or was odd), the reader backs out and retries. Once registered under
//     an even, unchanged seq, the reader owns a quiescent snapshot for as
//     long as it stays registered — beginMutate spins until s.readers
//     drains, so no re-validation after the walk is needed and the race
//     detector sees a clean happens-before edge in both directions.
//   - Registered readers only Peek (pure reads of committed state through
//     pager.SnapshotReader), never touching the clock, the cache overlay or
//     the crash injector — reads add no crash points and leave the golden
//     determinism files bit-identical.
//
// Readers hold the epoch only briefly (one Get descent, one scan chunk), so
// the writer's spin is bounded; writers take priority by flipping seq odd
// first, which makes new readers back off immediately.

const (
	// getMaxAttempts bounds optimistic epoch acquisition before a read
	// falls back to the locked path (pathological write storms keep
	// today's semantics, just slower).
	getMaxAttempts = 8
	// scanChunkPairs / scanChunkBytes bound one optimistic scan chunk —
	// the longest a scan may pin the read epoch (and hence stall a writer
	// behind the gate) before releasing and resuming past its last key.
	scanChunkPairs = 256
	scanChunkBytes = 32 << 10
)

// readState publishes the handles an optimistic reader needs. It is
// replaced wholesale (under the write gate) when Heal swaps the store, so a
// registered reader can never mix an old tree with a new arena.
type readState struct {
	sr       pager.SnapshotReader
	pageSize int
}

// publishReadState derives the optimistic-read handles from the current
// store. Stores that do not implement pager.SnapshotReader (wrapped test
// stores, exotic schemes) publish nil and every read takes the locked path.
// Called under s.mu, inside the write gate when readers may exist.
func (s *state) publishReadState() {
	if sr, ok := s.be.Store.(pager.SnapshotReader); ok {
		s.reader.Store(&readState{sr: sr, pageSize: s.be.Store.PageSize()})
	} else {
		s.reader.Store(nil)
	}
}

// setHealth mirrors the crashed/degraded flags into the atomic health word
// optimistic readers check. Called under s.mu, inside the write gate, so a
// registered reader that passed the health check cannot miss a transition
// that completed before it registered.
func (s *state) setHealth() {
	h := Healthy
	switch {
	case s.crashed:
		h = Crashed
	case s.degraded:
		h = Degraded
	}
	s.health.Store(int32(h))
}

// beginMutate opens the write gate: flip the sequence odd (new readers back
// off), then wait for registered readers to drain. Callers hold s.mu.
func (s *state) beginMutate() {
	s.seq.Add(1)
	for s.readers.Load() != 0 {
		runtime.Gosched()
	}
}

// endMutate closes the write gate (sequence back to even).
func (s *state) endMutate() { s.seq.Add(1) }

// viewStatus is acquireView's outcome.
type viewStatus int

const (
	viewOK       viewStatus = iota // registered; caller must releaseView
	viewRetry                      // writer active; back off and retry
	viewFallback                   // no optimistic path; use the locked path
)

var viewPool = sync.Pool{New: func() any { return btree.NewView() }}

// acquireView registers the caller in the read epoch and binds a pooled
// B-tree view to the shard's committed snapshot. On viewOK the caller MUST
// call releaseView — the writer spins on the reader count.
func (s *state) acquireView() (*btree.View, viewStatus) {
	if s.noOpt {
		return nil, viewFallback
	}
	seq := s.seq.Load()
	if seq&1 != 0 {
		return nil, viewRetry
	}
	s.readers.Add(1)
	if s.seq.Load() != seq {
		s.readers.Add(-1)
		return nil, viewRetry
	}
	// Registered under a quiescent shard. The health word and read state
	// are (re)checked only now: both are updated inside the write gate, so
	// whatever this load sees is the completed truth, never a mid-mutation
	// value — a crashed shard cannot leak a garbage walk past this point.
	if Health(s.health.Load()) != Healthy {
		s.readers.Add(-1)
		return nil, viewFallback
	}
	rs := s.reader.Load()
	if rs == nil {
		s.readers.Add(-1)
		return nil, viewFallback
	}
	v := viewPool.Get().(*btree.View)
	v.Reset(rs.sr, rs.pageSize)
	return v, viewOK
}

// releaseView leaves the read epoch and returns the view to the pool.
func (s *state) releaseView(v *btree.View) {
	s.readers.Add(-1)
	v.Release()
	viewPool.Put(v)
}

// readBackoff paces epoch-acquisition retries: yield first, then grow short
// sleeps, so a group commit in flight is overlapped rather than hammered.
func readBackoff(attempt int) {
	if attempt < 4 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Microsecond << uint(attempt-4))
}

// Get reads a key from its shard, optimistically when possible.
func (e *Engine) Get(key []byte) ([]byte, bool, error) {
	return e.shards[e.ShardFor(key)].get(key, nil)
}

// GetInto is Get with a caller-supplied destination buffer: the value is
// appended to dst[:0], so a steady-state reader with a large enough
// buffer performs no heap allocation on the optimistic path. The locked
// fallback (unhealthy shard, optimism disabled, no snapshot reader)
// ignores dst and allocates as Get does.
func (e *Engine) GetInto(key, dst []byte) ([]byte, bool, error) {
	return e.shards[e.ShardFor(key)].get(key, dst)
}

// get serves one point read. The optimistic path registers in the read
// epoch, walks the committed tree through the snapshot reader, and reports
// the walk's simulated cost — which mirrors what the locked path's arena
// loads would have charged — to the recorder. Contention retries with
// bounded backoff; unhealthy shards, disabled optimism and stores without a
// snapshot reader fall back to the locked path, which owns the canonical
// error behaviour (ErrCrashed, wrapped ErrShardDown).
func (s *state) get(key, dst []byte) ([]byte, bool, error) {
	var t0 time.Time
	if s.rec != nil {
		t0 = time.Now()
	}
	for attempt := 0; attempt < getMaxAttempts; attempt++ {
		v, st := s.acquireView()
		switch st {
		case viewRetry:
			readBackoff(attempt)
			continue
		case viewFallback:
			s.rec.ObserveReadPath(false, attempt)
			return s.lockedGet(key)
		}
		val, ok, err := v.Get(key, dst)
		cost := v.Cost()
		s.releaseView(v)
		if s.rec != nil {
			s.rec.ObserveWall(obsv.OpGet, int32(s.id), time.Since(t0).Nanoseconds())
			s.rec.ObserveSim(obsv.OpGet, cost)
			s.rec.ObserveReadPath(true, attempt)
		}
		return val, ok, err
	}
	s.rec.ObserveReadPath(false, getMaxAttempts)
	return s.lockedGet(key)
}

// lockedGet is the pre-optimistic Get: shard lock, canonical availability
// errors, a pager-transaction tree read. The read mutates the simulated
// cache and clock, so it runs inside the write gate like any mutator.
func (s *state) lockedGet(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unavailable(); err != nil {
		return nil, false, err
	}
	s.beginMutate()
	defer s.endMutate()
	var sp obsv.Span
	if s.rec != nil {
		sp = s.rec.Begin(s.be.Sys.Clock().Now(), obsv.Counters{})
	}
	v, ok, err := s.tree.Get(key)
	if s.rec != nil {
		s.rec.End(sp, obsv.OpGet, int32(s.id), s.be.Sys.Clock().Now(), obsv.Counters{})
	}
	return v, ok, err
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
// chunks, in the given direction. Optimistic chunks pin the read epoch only
// while filling and resume exclusively past their last key; contention past
// the retry budget — and shards without an optimistic path — drain the
// remaining range through the locked path. emit owns each scratch it
// receives (return it with putScratch) and is never called with the shard
// lock held; returning false stops the scan. No emit call follows an error.
// limit > 0 is the most pairs the caller will consume: the scan ends after
// that many, so a short page reads a short chunk, not a full one.
// ScanShard, the engine-scan producers and Count all funnel through here —
// the single read-only range entry point.
func (s *state) scanChunks(lo, hi []byte, reverse bool, limit int, emit func(*scanScratch) bool) error {
	curLo, curHi := lo, hi
	curLoX, curHiX := false, false
	var resume []byte
	attempt := 0
	for {
		chunk := scanChunkPairs
		if limit > 0 && limit < chunk {
			chunk = limit
		}
		v, st := s.acquireView()
		if st == viewRetry {
			if attempt < getMaxAttempts {
				readBackoff(attempt)
				attempt++
				continue
			}
			st = viewFallback
		}
		if st == viewFallback {
			return s.lockedChunks(curLo, curHi, curLoX, curHiX, reverse, limit, emit)
		}
		attempt = 0
		sc := getScratch()
		sc.sizeHint(s.recs.Load())
		full := false
		err := v.Scan(btree.Bounds{Lo: curLo, Hi: curHi, LoX: curLoX, HiX: curHiX, Reverse: reverse},
			func(k, val []byte) bool {
				sc.add(k, val)
				if sc.full(chunk) {
					full = true
					return false
				}
				return true
			})
		cost := v.Cost()
		s.releaseView(v)
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
				curHi, curHiX = resume, true
			} else {
				curLo, curLoX = resume, true
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

// lockedChunks drains [lo, hi] through the locked read path: records are
// collected into chunks under the shard lock (inside the write gate — a
// pager transaction's reads mutate the simulated cache and clock), then
// emitted after it is released, preserving emit's no-lock-held contract.
// The lo/hi exclusivity flags emulate the view path's resume semantics;
// limit > 0 ends the drain after that many pairs.
func (s *state) lockedChunks(lo, hi []byte, loX, hiX, reverse bool, limit int, emit func(*scanScratch) bool) error {
	var chunks []*scanScratch
	pairs := 0
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.unavailable(); err != nil {
			return err
		}
		s.beginMutate()
		defer s.endMutate()
		tx, err := s.tree.Begin()
		if err != nil {
			return err
		}
		defer tx.Rollback()
		sc := getScratch()
		sc.sizeHint(s.recs.Load())
		gather := func(k, v []byte) bool {
			if !reverse {
				if loX && lo != nil && bytes.Equal(k, lo) {
					return true // the resume key itself: already delivered
				}
				if hiX && hi != nil && bytes.Equal(k, hi) {
					return false // exclusive upper bound reached
				}
			} else {
				if hiX && hi != nil && bytes.Equal(k, hi) {
					return true
				}
				if loX && lo != nil && bytes.Equal(k, lo) {
					return false
				}
			}
			if sc.full(scanChunkPairs) {
				chunks = append(chunks, sc)
				sc = getScratch()
			}
			sc.add(k, v)
			pairs++
			return pairs != limit
		}
		if reverse {
			err = tx.ScanReverse(lo, hi, gather)
		} else {
			err = tx.Scan(lo, hi, gather)
		}
		if sc.len() > 0 {
			chunks = append(chunks, sc)
		} else {
			putScratch(sc)
		}
		return err
	}()
	if err != nil {
		for _, sc := range chunks {
			putScratch(sc)
		}
		return err
	}
	s.scanPairs.Add(int64(pairs))
	for i, sc := range chunks {
		if !emit(sc) {
			for _, rest := range chunks[i+1:] {
				putScratch(rest)
			}
			return nil
		}
	}
	return nil
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
// are produced by its own goroutine in bounded chunks (optimistic epochs
// with locked fallback), so collection overlaps across shards and with the
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
// point (epoch-pinned in bounded chunks, locked fallback).
func (s *state) countRecords() (int, error) {
	n := 0
	err := s.scanChunks(nil, nil, false, 0, func(sc *scanScratch) bool {
		n += sc.len()
		putScratch(sc)
		return true
	})
	return n, err
}
