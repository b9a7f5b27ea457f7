package shard

import (
	"bytes"
	"sync"
	"time"

	"fasp/internal/btree"
	"fasp/internal/obsv"
)

// The read path: every read walks the committed snapshot.
//
// The paper's slot header is the per-page atomic commit mark, and the
// commit schemes checkpoint eagerly, so the committed page image is always
// consistent: a reader needs the committed snapshot, never the writer's
// transaction. Every read — a Get, each chunk of a scan or Count — is a
// btree.View walk over pager.Store's PeekCommitted. It never touches the
// clock, the cache overlay or the crash injector, so reads add no crash
// points and leave the golden determinism files bit-identical. The only
// hazard left is reading WHILE a commit is installing headers, and one
// read-write gate per shard (s.gate) rules it out:
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
// callback runs inside a read step: a scan callback runs between a
// cursor's chunks, after closeView.

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

// openView binds a pooled view for one read step — a Get, or one scan
// chunk. It takes the read side of the gate, parking behind a commit in
// progress (queued reports that it had to). An unavailable shard leaves
// the gate again and returns its canonical error and no view. End the step
// with closeView.
func (s *state) openView() (v *btree.View, queued bool, err error) {
	if queued = !s.gate.TryRLock(); queued {
		s.gate.RLock()
	}
	if err := s.unavailable(); err != nil {
		s.gate.RUnlock()
		return nil, queued, err
	}
	v = viewPool.Get().(*btree.View)
	v.Reset(s.be.Store)
	return v, queued, nil
}

// closeView ends a read step openView began, returning its view to the
// pool.
func (s *state) closeView(v *btree.View) {
	v.Release()
	viewPool.Put(v)
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

// --- Range reads ----------------------------------------------------------

// pairRef locates one record inside a scanScratch buffer. Offsets, not
// slices: buf reallocates as it grows, and slices into it would dangle.
type pairRef struct {
	koff, klen, voff, vlen int
}

// scanScratch holds one chunk of scan results: keys and values append to
// one flat buffer, pairs index into it, and resume holds the key the next
// chunk starts past. Scratches recycle through scratchPool and keep their
// capacity, so steady-state scanning does not allocate.
type scanScratch struct {
	refs   []pairRef
	buf    []byte
	resume []byte
}

func (sc *scanScratch) reset() {
	sc.refs = sc.refs[:0]
	sc.buf = sc.buf[:0]
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

// cursor reads one shard's records in a range, in one direction, one
// chunk at a time on its caller's goroutine. Each chunk is one read step
// (openView): it walks the committed snapshot inside the read gate, and the
// next chunk, read only once this one is used up, resumes exclusively past
// its last key. No caller code runs inside a step, so a callback between
// chunks may read or write the shard again. ScanShard, ScanLimit and Count
// all read through cursors — the one read-only range entry point.
type cursor struct {
	s     *state
	b     btree.Bounds
	limit int          // pairs the caller may still take; <= 0: no limit
	sc    *scanScratch // the current chunk, pooled until close
	i     int          // the next pair of sc
	more  bool         // the last chunk stopped at a chunk bound, not the range's end
	err   error
}

// cursor starts a cursor over [lo, hi] (nil bounds are open). limit > 0 is
// the most pairs the caller will take: a short page reads a short chunk,
// not a full one. Release it with close.
func (s *state) cursor(lo, hi []byte, reverse bool, limit int) cursor {
	sc := scratchPool.Get().(*scanScratch)
	sc.reset()
	return cursor{s: s, b: btree.Bounds{Lo: lo, Hi: hi, Reverse: reverse}, limit: limit, sc: sc, more: true}
}

// ok reports whether c points at a pair, reading the next chunk when the
// current one is used up. It is false at the end of the range, after limit
// pairs, and after an error, which c.err keeps.
func (c *cursor) ok() bool {
	if c.i < c.sc.len() {
		return true
	}
	if c.more {
		c.fill()
	}
	return c.i < c.sc.len()
}

// key is the current pair's key; call it only after ok.
func (c *cursor) key() []byte {
	k, _ := c.sc.pair(c.i)
	return k
}

// next returns the current pair and advances past it; call it only after
// ok. The slices are valid until the next chunk is read.
func (c *cursor) next() (k, v []byte) {
	k, v = c.sc.pair(c.i)
	c.i++
	return k, v
}

// fill reads the next chunk as one read step.
func (c *cursor) fill() {
	sc := c.sc
	if n := sc.len(); n > 0 {
		// The bound must outlive buf, which this step overwrites.
		k, _ := sc.pair(n - 1)
		sc.resume = append(sc.resume[:0], k...)
		if c.b.Reverse {
			c.b.Hi, c.b.HiX = sc.resume, true
		} else {
			c.b.Lo, c.b.LoX = sc.resume, true
		}
	}
	sc.reset()
	c.i, c.more = 0, false
	chunk := scanChunkPairs
	if c.limit > 0 && c.limit < chunk {
		chunk = c.limit
	}
	v, _, err := c.s.openView()
	if err != nil {
		c.err = err
		return
	}
	err = v.Scan(c.b, func(k, val []byte) bool {
		sc.add(k, val)
		c.more = sc.full(chunk)
		return !c.more
	})
	cost := v.Cost()
	c.s.closeView(v)
	if err != nil {
		sc.reset()
		c.err, c.more = err, false
		return
	}
	if c.s.rec != nil && cost > 0 {
		c.s.rec.ObserveSim(obsv.OpScan, cost)
	}
	c.s.scanPairs.Add(int64(sc.len()))
	if c.limit > 0 {
		if c.limit -= sc.len(); c.limit == 0 {
			c.more = false // the caller's budget is spent: this chunk is the last
		}
	}
}

// close returns c's scratch to the pool.
func (c *cursor) close() {
	scratchPool.Put(c.sc)
	c.sc = nil
}

// ScanShard visits shard i's records in [lo, hi] in ascending order —
// inspection tooling and the golden tests read per-shard contents. It reads
// through the same cursor as ScanLimit, so the two paths cannot diverge.
// Key/value slices are valid only during the callback.
func (e *Engine) ScanShard(i int, lo, hi []byte, fn func(k, v []byte) bool) error {
	c := e.shards[i].cursor(lo, hi, false, 0)
	defer c.close()
	for c.ok() {
		if !fn(c.next()) {
			return nil
		}
	}
	return c.err
}

// ScanLimit visits the keys in [lo, hi] across all shards (nil bounds are
// open), in ascending order or, when reverse is set, descending, and ends
// after limit pairs (limit <= 0: no limit). Each shard holds a disjoint
// subset of the key space, so the global order is a k-way merge of one
// cursor per shard, run on the caller's goroutine: a cursor reads its next
// chunk only when the merge has used up the last one, and fn runs between
// read steps. The limit reaches every cursor, since no shard can contribute
// more than that to the merge: a page of 16 costs at most 16 pairs per
// shard, where a scan whose fn stops after 16 reads a full chunk on each.
// Key/value slices are valid only during the callback; a shard error
// surfaces as soon as the merge needs that shard's next record.
func (e *Engine) ScanLimit(lo, hi []byte, reverse bool, limit int, fn func(k, v []byte) bool) error {
	curs := make([]cursor, len(e.shards))
	for i, s := range e.shards {
		curs[i] = s.cursor(lo, hi, reverse, limit)
	}
	defer func() {
		for i := range curs {
			curs[i].close()
		}
	}()
	for {
		// Linear-probe merge: shard counts are small (≤ a few dozen), so a
		// heap would not pay for itself.
		var best *cursor
		for i := range curs {
			c := &curs[i]
			if !c.ok() {
				if c.err != nil {
					return c.err
				}
				continue
			}
			if best == nil {
				best = c
				continue
			}
			cm := bytes.Compare(c.key(), best.key())
			if (!reverse && cm < 0) || (reverse && cm > 0) {
				best = c
			}
		}
		if best == nil || !fn(best.next()) {
			return nil
		}
		if limit > 0 {
			if limit--; limit == 0 {
				return nil
			}
		}
	}
}

// Count sums the record counts of all shards. Each shard counts through
// its own cursor, concurrently; Count waits for every shard and returns the
// lowest-index shard's error.
func (e *Engine) Count() (int, error) {
	all := make([]int, len(e.shards))
	counts := make([]int, len(e.shards))
	for si := range all {
		all[si] = si
	}
	err := fanOut(all, func(si int) error {
		c := e.shards[si].cursor(nil, nil, false, 0)
		defer c.close()
		for ; c.ok(); counts[si]++ {
			c.next()
		}
		return c.err
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, nil
}
