package shard

import (
	"fmt"
	"sync"
	"time"
)

// Request is one submission handle: one or more ops bound for a single
// shard, a parallel error slice a round fills, and the submission's atomic
// units. The zero value is ready to use. A handle carries one submission
// at a time — Enqueue it, Wait on it, then it may be enqueued again — and
// is owned by one goroutine; Submit keeps one handle per shard in its
// Submission.
type Request struct {
	ops   []Op
	errs  []error
	units []int32 // op counts of the atomic units; nil: one unit

	s      *state    // shard the handle is queued on; nil = nothing to wait for
	t0     time.Time // enqueue time, when a recorder is observing
	served bool      // a round has filled errs; written and read under s.mu
}

var reqPool = sync.Pool{New: func() any { return new(Request) }}

// release returns a pooled handle after Wait, dropping its views of the
// submission's slices so the pool pins no caller memory.
func (r *Request) release() {
	r.ops, r.errs, r.units = nil, nil, nil
	reqPool.Put(r)
}

// roundScratch is the serving submitter's reusable view of a round: the
// submissions it took off the queue and their flattened ops.
type roundScratch struct {
	reqs  []*Request
	ops   []Op
	errs  []error
	units []int32
}

// serveRound is the one stage where concurrent submitters are gathered
// into a group commit: it takes the oldest queued submission and then
// more, until the queue is empty or the drain bound is reached, and
// commits them as one round. Round k+1 queues while round k commits, so a
// round is as wide as the submitters that arrived during the one before
// it; the drain bound keeps latency bounded under sustained load. Callers
// hold s.mu and know the queue is not empty.
func (s *state) serveRound() {
	flat := &s.flat
	s.qmu.Lock()
	k, n := 1, len(s.queue[0].ops)
	for ; k < len(s.queue) && n < s.maxBatch; k++ {
		n += len(s.queue[k].ops)
	}
	reqs := append(flat.reqs[:0], s.queue[:k]...)
	left := copy(s.queue, s.queue[k:])
	clear(s.queue[left:])
	s.queue = s.queue[:left]
	s.qmu.Unlock()
	// Queue depth at drain time: how far the rounds are behind the clients.
	s.rec.ObserveMailDepth(left)

	// Every round takes the same shape, one submission or many: the
	// submissions are flattened into one op slice — each one's units kept,
	// a submission without units one unit — and their verdicts scattered
	// back.
	ops, errs, units := flat.ops[:0], flat.errs[:0], flat.units[:0]
	for _, r := range reqs {
		ops = append(ops, r.ops...)
		if r.units != nil {
			units = append(units, r.units...)
		} else if len(r.ops) > 0 {
			units = append(units, int32(len(r.ops)))
		}
	}
	for range ops {
		errs = append(errs, nil)
	}
	s.commit(ops, errs, units)
	off := 0
	for _, r := range reqs {
		copy(r.errs, errs[off:off+len(r.ops)])
		off += len(r.ops)
		r.served = true
	}
	*flat = roundScratch{reqs, ops, errs, units}
}

// Submission is a caller's reusable scratch for Submit: its write set laid
// out by shard, each shard's atomic units, and one queue handle per shard.
// The zero value is ready to use. It carries one Submit at a time and is
// owned by one goroutine, so a caller that keeps one submits without heap
// allocation at steady state.
type Submission struct {
	ops   []Op      // the write set shard-major: shard si's part is ops[start[si]:start[si+1]]
	errs  []error   // the parts' verdicts, parallel to ops
	pos   []int32   // each op's shard, then its position in ops
	start []int32   // the parts' bounds, len Shards()+1
	owner []int32   // per shard, the request (plus one) that opened its last unit
	units [][]int32 // per shard, its part's units; rows unused without request boundaries
	busy  []int     // the shards with a non-empty part, ascending
	sizes []int32   // their parts' op counts, parallel to busy
	reqs  []Request // per shard, its queue handle
}

// Parts returns the op count of every non-empty shard part of the last
// Submit, in ascending shard order.
func (sp *Submission) Parts() []int32 { return sp.sizes }

// split lays ops out by shard, each shard's part in request order. units,
// when not nil, lists the op counts of consecutive requests, and each
// request's ops on a shard become one unit of that shard's part. When one
// shard takes every op the layout is left unbuilt: that part is ops itself,
// with units as they are. This is the one place the engine decides a write
// set's shard layout; Submit and ApplyBatch both go through it.
func (e *Engine) split(sp *Submission, ops []Op, units []int32) {
	n := len(e.shards)
	sp.start = resize(sp.start, n+1)
	clear(sp.start)
	sp.pos = resize(sp.pos, len(ops))
	for i := range ops {
		si := int32(e.ShardFor(ops[i].Key))
		sp.pos[i] = si
		sp.start[si+1]++
	}
	sp.busy, sp.sizes = sp.busy[:0], sp.sizes[:0]
	for si := 0; si < n; si++ {
		if c := sp.start[si+1]; c > 0 {
			sp.busy = append(sp.busy, si)
			sp.sizes = append(sp.sizes, c)
		}
		sp.start[si+1] += sp.start[si]
	}
	if len(sp.busy) < 2 {
		return
	}
	if units != nil {
		sp.owner = resize(sp.owner, n)
		clear(sp.owner)
		if len(sp.units) < n {
			sp.units = make([][]int32, n)
		}
		for si := range sp.units {
			sp.units[si] = sp.units[si][:0]
		}
	}
	// start[si] walks shard si's part as it fills, ending where part si+1
	// begins; the shift afterwards restores the parts' starts. r is the
	// request op i belongs to, and end the op that request ends before.
	sp.ops = resize(sp.ops, len(ops))
	r, end := 0, len(ops)
	if units != nil {
		end = int(units[0])
	}
	for i := range ops {
		si := sp.pos[i]
		k := sp.start[si]
		sp.start[si]++
		sp.ops[k], sp.pos[i] = ops[i], k
		if units == nil {
			continue
		}
		for i == end {
			r++
			end += int(units[r])
		}
		if sp.owner[si] != int32(r)+1 {
			sp.owner[si] = int32(r) + 1
			sp.units[si] = append(sp.units[si], 0)
		}
		sp.units[si][len(sp.units[si])-1]++
	}
	copy(sp.start[1:], sp.start[:n])
	sp.start[0] = 0
}

// resize returns b with length n, reusing its array when it is big enough.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Submit commits a write set through the shard queues and fills errs
// (len(ops)) with the verdicts, in request order. ops are in request order;
// units lists the op counts of consecutive requests — positive, summing to
// len(ops) — and nil makes the whole set one request. The set is split by
// shard (split), every non-empty part is enqueued on its shard as one
// submission whose units are the requests' ops on that shard, and then the
// parts are waited on in ascending shard order. Each Wait serves its
// shard's queue unless another submitter's round has already served the
// part, so a part commits with whatever else queued on its shard, and
// different submitters commit different shards at once. A request that
// spans shards is one unit on each of them, not one across them: there are
// no cross-shard transactions. sp is the caller's reusable scratch; Submit
// reads ops and units only until it returns.
func (e *Engine) Submit(sp *Submission, ops []Op, errs []error, units []int32) {
	e.split(sp, ops, units)
	if len(sp.busy) == 0 {
		return
	}
	if len(sp.reqs) < len(e.shards) {
		sp.reqs = make([]Request, len(e.shards))
	}
	if len(sp.busy) == 1 {
		r := &sp.reqs[sp.busy[0]]
		e.Enqueue(r, sp.busy[0], ops, errs, units)
		e.Wait(r)
		return
	}
	sp.errs = resize(sp.errs, len(ops))
	for _, si := range sp.busy {
		lo, hi := sp.start[si], sp.start[si+1]
		var u []int32
		if units != nil {
			u = sp.units[si]
		}
		e.Enqueue(&sp.reqs[si], si, sp.ops[lo:hi], sp.errs[lo:hi], u)
	}
	for _, si := range sp.busy {
		e.Wait(&sp.reqs[si])
	}
	for i, k := range sp.pos {
		errs[i] = sp.errs[k]
	}
}

// Enqueue places ops — every key must route to shard si under ShardFor;
// placement is the caller's contract — on that shard's queue as one
// submission, without waiting for the commit; Wait(r) returns once a round
// has filled errs (len(ops)). It is zero-copy: the handle carries the
// caller's slices, which the caller must not touch until Wait returns. A
// caller with work for several shards uses Submit, which enqueues one
// handle on each and then waits on all of them.
//
// units lists the op counts of the submission's atomic units in order —
// positive, summing to len(ops) — and nil makes the submission one unit. A
// unit commits whole or not at all and, unless it alone exceeds the drain
// bound, inside one transaction; separate units may survive a crash apart.
// A caller that coalesces several independent requests into one submission
// passes one unit per request, so FAST+ can commit each single-leaf request
// in place.
//
// A shard whose queue already holds 4×MaxBatch submissions refuses the
// submission at once with ErrBusy, a submission after Close with
// ErrClosed, and a shard index outside [0, Shards()) with ErrBadShard;
// errs is then already filled and Wait returns at once.
func (e *Engine) Enqueue(r *Request, si int, ops []Op, errs []error, units []int32) {
	r.ops, r.errs, r.units, r.s, r.served = ops, errs, units, nil, false
	if si < 0 || si >= len(e.shards) {
		err := fmt.Errorf("%w: %d (engine has %d shard(s))", ErrBadShard, si, len(e.shards))
		for i := range errs {
			errs[i] = err
		}
		return
	}
	s := e.shards[si]
	if s.rec != nil {
		r.t0 = time.Now()
	}
	var cause error
	s.qmu.Lock()
	switch {
	case s.closed:
		cause = ErrClosed
	case len(s.queue) >= queueFactor*s.maxBatch:
		cause = ErrBusy
	default:
		s.queue = append(s.queue, r)
	}
	s.qmu.Unlock()
	if cause != nil {
		failAll(s, errs, cause)
		return
	}
	r.s = s
}

// Wait blocks until r's enqueued submission has its verdicts. It takes the
// shard lock and serves rounds off the queue head until one of them has
// served r — or finds that another submitter's round, or Close, already
// did.
func (e *Engine) Wait(r *Request) {
	s := r.s
	if s == nil {
		return
	}
	r.s = nil
	var t0 time.Time
	if s.rec != nil {
		t0 = time.Now()
	}
	s.mu.Lock()
	if s.rec != nil {
		// The shard-lock wait: how long this submitter parked, and whether
		// another round had served its handle by the time it got the lock.
		s.rec.ObserveLockWait(r.served, time.Since(t0).Nanoseconds())
	}
	for !r.served {
		s.serveRound()
	}
	s.mu.Unlock()
	if s.rec != nil {
		// Client-perceived wall latency: queueing plus the group commit.
		wall := time.Since(r.t0).Nanoseconds()
		for i := range r.ops {
			s.rec.ObserveWall(kindOp[r.ops[i].Kind], int32(s.id), wall)
		}
	}
}

// SubmitShard is Enqueue then Wait on a pooled handle.
func (e *Engine) SubmitShard(si int, ops []Op, errs []error) {
	r := reqPool.Get().(*Request)
	e.Enqueue(r, si, ops, errs, nil)
	e.Wait(r)
	r.release()
}

// failAll reports one error for every op of a failed submission.
func failAll(s *state, out []error, cause error) {
	err := fmt.Errorf("shard %d: %w", s.id, cause)
	for i := range out {
		out[i] = err
	}
}

// Do applies one operation on the caller's goroutine, under the key's
// shard lock (applyLocked, the path ApplyBatch takes), and returns its
// verdict. A synchronous caller cannot submit again before its verdict, so
// the queue could never gather a second op of its own (DESIGN.md §7). Do
// neither queues nor serves the queue, and concurrent Do callers are not
// gathered with each other: each commits alone. Callers that want their
// writes gathered into group commits use Enqueue/Wait, as the server does.
func (e *Engine) Do(op Op) error {
	s := e.shards[e.ShardFor(op.Key)]
	var t0 time.Time
	if s.rec != nil {
		t0 = time.Now()
	}
	var out [1]error
	s.applyLocked([]Op{op}, out[:], nil)
	if s.rec != nil {
		s.rec.ObserveWall(kindOp[op.Kind], int32(s.id), time.Since(t0).Nanoseconds())
	}
	return out[0]
}
