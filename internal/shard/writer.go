package shard

import (
	"fmt"
	"sync"
	"time"
)

// Request is one submission handle: one or more ops bound for a single
// shard, a parallel error slice the writer fills, the submission's atomic
// units, and a reusable completion channel. The zero value is ready to use.
// A handle carries one submission at a time — Enqueue it, Wait on it, then
// it may be enqueued again — and is owned by one goroutine; callers that
// submit to several shards at once keep one handle per shard.
type Request struct {
	ops   []Op
	errs  []error
	units []int32 // op counts of the atomic units; nil: one unit
	done  chan struct{}

	s      *state    // shard the handle is queued on; nil = nothing to wait for
	t0     time.Time // enqueue time, when a recorder is observing
	orphan bool      // left on a dead mailbox by Wait; never pooled again
}

var reqPool = sync.Pool{New: func() any { return new(Request) }}

// release returns a pooled handle after Wait, dropping its views of the
// submission's slices so the pool pins no caller memory.
func (r *Request) release() {
	if r.orphan {
		return
	}
	r.ops, r.errs, r.units = nil, nil, nil
	reqPool.Put(r)
}

// run is a shard's single-writer loop — the one stage where concurrent
// submitters are gathered into a group commit: block for one request,
// drain whatever else the mailbox holds until it is empty or the drain
// bound is reached, and commit the drained set as one round. Round k+1
// queues on the mailbox while round k commits, so a round is as wide as
// the submitters that arrived during the one before it. The drain bound
// keeps latency bounded under sustained load; the blocking receive means
// an idle shard costs nothing.
func (s *state) run() {
	defer close(s.done)
	var (
		reqs []*Request
		flat roundScratch
	)
	for {
		select {
		case r := <-s.mail:
			reqs = append(reqs[:0], r)
		drain:
			for n := len(r.ops); n < s.maxBatch; {
				select {
				case q := <-s.mail:
					reqs = append(reqs, q)
					n += len(q.ops)
				default:
					break drain
				}
			}
			s.serve(reqs, &flat)
		case <-s.quit:
			// Serve the backlog, then exit. No new senders are allowed
			// once Close has been called.
			for {
				select {
				case r := <-s.mail:
					reqs = append(reqs[:0], r)
					s.serve(reqs, &flat)
				default:
					return
				}
			}
		}
	}
}

// roundScratch is the writer's reusable flattened view of a drained round.
type roundScratch struct {
	ops   []Op
	errs  []error
	units []int32
}

// serve applies a drained request set as one group commit and signals each
// request. Every round takes the same shape, one request or many: the
// requests are flattened into one op slice — each request's units kept, a
// request without units one unit — and their verdicts scattered back.
func (s *state) serve(reqs []*Request, flat *roundScratch) {
	// Mailbox depth at drain time: how far the writer is behind its clients.
	s.rec.ObserveMailDepth(len(s.mail))
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
	s.applyLocked(ops, errs, units)
	k := 0
	for _, r := range reqs {
		copy(r.errs, errs[k:k+len(r.ops)])
		k += len(r.ops)
		r.done <- struct{}{}
	}
	*flat = roundScratch{ops, errs, units}
}

// Enqueue places ops — every key must route to shard si under ShardFor;
// placement is the caller's contract — on that shard's mailbox as one
// submission, without waiting for the commit; Wait(r) blocks until the
// writer has filled errs (len(ops)). It is zero-copy: the handle carries
// the caller's slices, which the caller must not touch until Wait returns.
// A caller with work for several shards enqueues one handle on each and
// then waits on all of them, so every shard's writer is busy at once with
// no cross-shard barrier.
//
// units lists the op counts of the submission's atomic units in order —
// positive, summing to len(ops) — and nil makes the submission one unit. A
// unit commits whole or not at all and, unless it alone exceeds the drain
// bound, inside one transaction; separate units may survive a crash apart.
// A caller that coalesces several independent requests into one submission
// passes one unit per request, so FAST+ can commit each single-leaf request
// in place.
//
// A mailbox that stays full for two seconds (enqueueTimeout) fails the
// submission with ErrBusy instead of blocking the caller forever on a
// wedged writer, a submission racing (or following) Close fails with
// ErrClosed, and a shard index outside [0, Shards()) with ErrBadShard;
// either way errs is already filled and Wait returns at once.
func (e *Engine) Enqueue(r *Request, si int, ops []Op, errs []error, units []int32) {
	r.ops, r.errs, r.units, r.s = ops, errs, units, nil
	if si < 0 || si >= len(e.shards) {
		err := fmt.Errorf("%w: %d (engine has %d shard(s))", ErrBadShard, si, len(e.shards))
		for i := range errs {
			errs[i] = err
		}
		return
	}
	s := e.shards[si]
	if r.done == nil {
		r.done = make(chan struct{}, 1)
	}
	if s.rec != nil {
		r.t0 = time.Now()
	}
	if e.closed.Load() {
		failAll(s, errs, ErrClosed)
		return
	}
	if !e.enqueue(s, r) {
		cause := ErrBusy
		if e.closed.Load() {
			cause = ErrClosed
		}
		failAll(s, errs, cause)
		return
	}
	r.s = s
}

// Wait blocks until the writer has served r's enqueued submission. If the
// engine is closed underneath it, the unserved submission fails with
// ErrClosed and the handle is orphaned: the dead mailbox still references
// it, so it is never pooled again. A caller-owned handle may still be passed
// to Enqueue, which on a closed engine fails before touching the mailbox.
func (e *Engine) Wait(r *Request) {
	s := r.s
	if s == nil {
		return
	}
	r.s = nil
	select {
	case <-r.done:
	case <-s.done:
		// The writer exited. Its shutdown path drains the backlog before
		// closing done, so our reply may already be buffered; otherwise the
		// request slipped into the mailbox after the final drain and will
		// never be served.
		select {
		case <-r.done:
		default:
			r.orphan = true
			failAll(s, r.errs, ErrClosed)
			return
		}
	}
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

// enqueue places r on s's mailbox, waiting up to enqueueTimeout for space
// while the mailbox is full. It reports whether r was enqueued: not when
// the wait timed out, nor when Close stopped the writer meanwhile.
func (e *Engine) enqueue(s *state, r *Request) bool {
	select {
	case s.mail <- r:
		return true
	default:
	}
	t := time.NewTimer(enqueueTimeout)
	defer t.Stop()
	select {
	case s.mail <- r:
		return true
	case <-t.C:
	case <-s.quit:
	}
	return false
}

// Do applies one operation on the caller's goroutine, under the key's
// shard lock (applyLocked, the path ApplyBatch takes), and returns its
// verdict. A synchronous caller cannot submit again before its verdict, so
// a mailbox could never gather a second op of its own; on one shard, with
// one caller, the mailbox route cost 13.5 us a write against 7.5 here
// (DESIGN.md §7). Concurrent Do callers are not gathered with each other:
// each commits alone. Callers that want their writes gathered into group
// commits use Enqueue/Wait, as the server does.
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
