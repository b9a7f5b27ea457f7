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
// is owned by one goroutine; callers that submit to several shards at once
// keep one handle per shard.
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

// Enqueue places ops — every key must route to shard si under ShardFor;
// placement is the caller's contract — on that shard's queue as one
// submission, without waiting for the commit; Wait(r) returns once a round
// has filled errs (len(ops)). It is zero-copy: the handle carries the
// caller's slices, which the caller must not touch until Wait returns. A
// caller with work for several shards enqueues one handle on each and then
// waits on all of them; a round on any shard serves whatever is queued
// there, so no shard waits for another.
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
	s.mu.Lock()
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
