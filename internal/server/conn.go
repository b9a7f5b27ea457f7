package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"time"

	"fasp"
	"fasp/internal/obsv"
	"fasp/internal/server/wire"
	"fasp/internal/shard"
)

// maxScanBytes caps one SCAN reply's size; the server truncates with the
// more-marker set and the client resumes past the last key.
const maxScanBytes = 256 << 10

// opRef is one deferred write op, as offsets into the connection's arena —
// offsets, not subslices, because the arena reallocates as it grows.
type opRef struct {
	kind       uint8
	koff, klen int
	voff, vlen int
}

// pend is one request awaiting its in-order response slot. nops > 0 means
// the next nops verdicts of the flush batch belong to it; nops == 0 means
// the response was decided at decode time (BUSY shed, SHUTDOWN drain,
// PING ack, protocol error). raw, when non-nil, is a pre-encoded response
// frame emitted verbatim (a dedup-cache hit replaying a committed write's
// original ack). seq/hasSeq carry the session dedup token so flushWrites
// can complete (cache the reply) or cancel (refused unapplied) it.
type pend struct {
	op     byte
	code   wire.Code
	msg    string
	t0     time.Time
	nops   int
	raw    []byte
	seq    uint64
	hasSeq bool
}

// conn is one connection's reader state. All per-request buffers are
// reused across frames; the write-op bytes are copied into the arena
// because the frame decode buffer is clobbered by the next ReadFrame.
type conn struct {
	s  *Server
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	buf   []byte // frame decode buffer
	out   []byte // pending response bytes, flushed once per round
	arena []byte // deferred write-op key/val bytes
	refs  []opRef
	pends []pend

	req   wire.Request
	ops   []fasp.Op       // scratch, materialised in request order from refs at flush
	errs  []error         // verdicts, parallel to ops
	units []int32         // op counts of the flushed write requests, in order
	sub   fasp.Submission // KV.Submit's reusable scratch
	codes []wire.Code     // scratch for batch replies
	sess  *session        // bound by HELLO; nil until then
	val   []byte          // GET fast-path value buffer (GetInto destination)
}

func newConn(s *Server, c net.Conn) *conn {
	return &conn{
		s:  s,
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
}

// run is the connection loop: block for one frame, drain every further
// frame already buffered, flush the deferred writes as one engine
// submission, write the in-order responses, repeat. The blocking read only
// ever happens with nothing pending and nothing unflushed, so a quiet
// client never holds acks hostage and Shutdown can close idle readers.
func (cn *conn) run() {
	for {
		// The idle deadline only arms the blocking read: every other read
		// in the round consumes bytes PeekFrame proved are already
		// buffered, so the deadline cannot fire spuriously mid-round.
		if d := cn.s.cfg.IdleTimeout; d > 0 {
			cn.c.SetReadDeadline(time.Now().Add(d))
		}
		op, payload, buf, err := wire.ReadFrame(cn.br, cn.s.cfg.MaxFrame, cn.buf)
		cn.buf = buf
		if err != nil {
			cn.teardown(err)
			return
		}
		cn.s.beginRound()
		fatal := cn.process(op, payload)
		for !fatal {
			ready, perr := wire.PeekFrame(cn.br, cn.s.cfg.MaxFrame)
			if perr != nil {
				cn.flushWrites()
				cn.protoErr(perr)
				fatal = true
				break
			}
			if !ready {
				break
			}
			op, payload, buf, err = wire.ReadFrame(cn.br, cn.s.cfg.MaxFrame, cn.buf)
			cn.buf = buf
			if err != nil { // cannot happen: the frame was fully buffered
				cn.teardown(err)
				cn.s.reqWG.Done()
				return
			}
			if fatal = cn.process(op, payload); fatal {
				break
			}
			if len(cn.refs) >= maxCoalesce {
				cn.flushWrites()
			}
		}
		cn.flushWrites()
		ok := cn.writeOut()
		cn.s.reqWG.Done()
		if fatal || !ok {
			return
		}
	}
}

// teardown handles a blocking-read error: frame-level protocol errors are
// answered with CodeProto before closing; an expired idle deadline is
// answered with CodeTimeout (the typed "I'm hanging up on you" — the
// shutdown sweep also trips read deadlines, but it already answered
// SHUTDOWN and draining distinguishes it); EOF and everything else just
// close. Nothing is pending at a blocking read, so no acks are lost.
func (cn *conn) teardown(err error) {
	switch {
	case errors.Is(err, wire.ErrMalformed) || errors.Is(err, wire.ErrFrameTooBig):
		cn.protoErr(err)
		cn.writeOut()
	case errors.Is(err, os.ErrDeadlineExceeded) && !cn.s.draining.Load():
		cn.s.met.timeouts.Add(1)
		cn.out = wire.AppendErr(cn.out, wire.CodeTimeout, -1, 0, "connection idle timeout")
		cn.writeOut()
	}
}

// protoErr appends a CodeProto response; the connection closes after it.
func (cn *conn) protoErr(err error) {
	cn.s.met.rejProto.Add(1)
	cn.out = wire.AppendErr(cn.out, wire.CodeProto, -1, 0, err.Error())
}

// process handles one decoded frame; true means the connection must close
// after the current round's responses are flushed (framing is broken).
func (cn *conn) process(op byte, payload []byte) (fatal bool) {
	cn.s.met.bytesIn.Add(int64(5 + len(payload)))
	t0 := time.Now()
	if err := wire.ParseRequest(op, payload, &cn.req); err != nil {
		// An unparseable payload inside a well-framed request does not
		// desynchronise the stream, but trusting anything after it is not
		// worth the risk: answer in order, then drop the connection.
		cn.pends = append(cn.pends, pend{op: op, code: wire.CodeProto, msg: err.Error(), t0: t0})
		cn.s.met.rejProto.Add(1)
		return true
	}
	if op > 0 && op < wire.NumOps {
		cn.s.met.opCount[op].Add(1)
	}
	if cn.s.draining.Load() {
		cn.pends = append(cn.pends, pend{op: op, code: wire.CodeShutdown, msg: "server draining", t0: t0})
		cn.s.met.rejShutdown.Add(1)
		return false
	}

	switch op {
	case wire.OpPing:
		cn.pends = append(cn.pends, pend{op: op, code: wire.CodeOK, t0: t0})

	case wire.OpHello:
		cn.sess = cn.s.sessions.get(cn.req.SID)
		cn.pends = append(cn.pends, pend{op: op, code: wire.CodeOK, t0: t0})

	case wire.OpPut, wire.OpPutSeq:
		resolved, fatal := cn.beginSeq(op, t0)
		if resolved || fatal {
			return fatal
		}
		cn.deferWrite(op, t0, wire.BatchOp{Kind: uint8(fasp.OpPut), Key: cn.req.Key, Val: cn.req.Val})
	case wire.OpDel, wire.OpDelSeq:
		resolved, fatal := cn.beginSeq(op, t0)
		if resolved || fatal {
			return fatal
		}
		cn.deferWrite(op, t0, wire.BatchOp{Kind: uint8(fasp.OpDelete), Key: cn.req.Key})
	case wire.OpBatch, wire.OpBatchSeq:
		resolved, fatal := cn.beginSeq(op, t0)
		if resolved || fatal {
			return fatal
		}
		cn.deferWrite(op, t0, cn.req.Ops...)

	case wire.OpGet:
		cn.flushWrites()
		if !cn.s.admit() {
			cn.shedBusy(op, t0)
			return false
		}
		// Fast path: answered right here on the reader goroutine — no pend,
		// no writer round trip — with the value read into the connection's
		// reusable buffer (zero heap allocation at steady state).
		v, ok, err := cn.s.kv.GetInto(cn.req.Key, cn.val[:0])
		if cap(v) > cap(cn.val) {
			cn.val = v
		}
		cn.s.release()
		switch {
		case err != nil:
			cn.appendError(op, err)
		case !ok:
			cn.out = wire.AppendValue(cn.out, wire.CodeNotFound, nil)
		default:
			cn.out = wire.AppendValue(cn.out, wire.CodeOK, v)
		}
		cn.observe(op, t0)

	case wire.OpScan:
		cn.flushWrites()
		if !cn.s.admit() {
			cn.shedBusy(op, t0)
			return false
		}
		cn.serveScan()
		cn.s.release()
		cn.observe(op, t0)

	case wire.OpCount:
		cn.flushWrites()
		if !cn.s.admit() {
			cn.shedBusy(op, t0)
			return false
		}
		n, err := cn.s.kv.Count()
		cn.s.release()
		if err != nil {
			cn.appendError(op, err)
		} else {
			cn.out = wire.AppendCount(cn.out, uint64(n))
		}
		cn.observe(op, t0)

	case wire.OpStats:
		cn.flushWrites()
		cn.serveStats()
		cn.observe(op, t0)
	}
	return false
}

// beginSeq resolves a sequenced write's dedup token before execution; it
// is a no-op for unsequenced writes. resolved means the response is already
// decided (cached replay of a committed write, or a typed error) and the
// caller must not defer the ops; fatal means the connection must close (a
// sequenced write before HELLO is a protocol violation).
func (cn *conn) beginSeq(op byte, t0 time.Time) (resolved, fatal bool) {
	if !cn.req.HasSeq {
		return false, false
	}
	if cn.sess == nil {
		cn.pends = append(cn.pends, pend{op: op, code: wire.CodeProto, msg: "sequenced write before HELLO", t0: t0})
		cn.s.met.rejProto.Add(1)
		return true, true
	}
	for {
		e, st := cn.sess.begin(cn.req.Seq)
		switch st {
		case seqFresh:
			return false, false
		case seqDone:
			// Exactly-once: the write already committed (through this or a
			// previous connection); answer its cached ack verbatim.
			cn.pends = append(cn.pends, pend{op: op, raw: e.reply, t0: t0})
			return true, false
		case seqInflight:
			// The original is racing through another connection's commit.
			// Flush our own pending set first — if the original were in
			// it, waiting without flushing would deadlock on ourselves —
			// then wait for its verdict and re-resolve.
			cn.flushWrites()
			<-e.done
		case seqStale:
			cn.pends = append(cn.pends, pend{op: op, code: wire.CodeInternal, msg: "sequence token outside dedup window", t0: t0})
			return true, false
		}
	}
}

// deferWrite admits a write request and parks its ops in the arena; the
// verdicts arrive at the next flushWrites.
func (cn *conn) deferWrite(op byte, t0 time.Time, ops ...wire.BatchOp) {
	seq, hasSeq := cn.req.Seq, cn.req.HasSeq
	if len(ops) == 0 {
		// Only BATCH can be empty (ParseRequest accepts n == 0). There is
		// nothing to commit, so skip admission entirely — the reply is an
		// empty verdict list decided here, and flushWrites must not release
		// a semaphore slot this request never took.
		cn.pends = append(cn.pends, pend{op: op, t0: t0, seq: seq, hasSeq: hasSeq})
		return
	}
	if !cn.s.admit() {
		cn.pends = append(cn.pends, pend{op: op, code: wire.CodeBusy, msg: "server overloaded", t0: t0, seq: seq, hasSeq: hasSeq})
		cn.s.met.rejBusy.Add(1)
		cn.s.met.opErr[op].Add(1)
		return
	}
	for _, b := range ops {
		r := opRef{kind: b.Kind, koff: len(cn.arena), klen: len(b.Key)}
		cn.arena = append(cn.arena, b.Key...)
		r.voff, r.vlen = len(cn.arena), len(b.Val)
		cn.arena = append(cn.arena, b.Val...)
		cn.refs = append(cn.refs, r)
	}
	cn.pends = append(cn.pends, pend{op: op, t0: t0, nops: len(ops), seq: seq, hasSeq: hasSeq})
}

// shedBusy answers one immediate (read-path) request with BUSY.
func (cn *conn) shedBusy(op byte, t0 time.Time) {
	cn.out = wire.AppendErr(cn.out, wire.CodeBusy, -1, cn.s.retryHintMS(wire.CodeBusy), "server overloaded")
	cn.s.met.rejBusy.Add(1)
	cn.s.met.opErr[op].Add(1)
	cn.observe(op, t0)
}

// verdictApplied reports whether a verdict code means the op took effect or
// was at least evaluated against data state (complete → cache for replay),
// as opposed to refused without execution (cancel → a replay re-executes).
// CodeInternal is deliberately "applied": on an ambiguous failure,
// exactly-once degrades to at-most-once, never to twice.
func verdictApplied(c wire.Code) bool {
	switch c {
	case wire.CodeBusy, wire.CodeUnavail, wire.CodeShutdown:
		return false
	}
	return true
}

// flushWrites submits every deferred write op to the engine as one
// KV.Submit — each request one atomic unit on every shard it touches — and
// emits the pending responses in request order. The arena and scratch are
// reusable immediately after: Submit returns once every involved shard's
// verdicts are in, and the engine's rounds copy what they persist.
func (cn *conn) flushWrites() {
	if len(cn.pends) == 0 {
		return
	}
	if len(cn.refs) > 0 {
		cn.submit()
	}
	vi := 0
	admitted := 0
	for i := range cn.pends {
		p := &cn.pends[i]
		mark := len(cn.out)
		applied := true // whether the verdict is final for dedup purposes
		switch {
		case p.raw != nil:
			// Dedup-cache hit: replay the committed write's original ack
			// verbatim, in this request's pipeline slot.
			cn.out = append(cn.out, p.raw...)
		case p.nops == 0 && p.code == wire.CodeOK && wire.BaseOp(p.op) == wire.OpBatch:
			// Empty BATCH: never admitted, nothing committed; the reply is
			// still a batch-shaped frame so ParseBatchReply accepts it.
			cn.out = wire.AppendBatchReply(cn.out, nil)
		case p.nops == 0 && p.code == wire.CodeOK:
			cn.out = wire.AppendOK(cn.out)
		case p.nops == 0:
			cn.out = wire.AppendErr(cn.out, p.code, -1, cn.s.retryHintMS(p.code), p.msg)
			applied = verdictApplied(p.code)
		case wire.BaseOp(p.op) == wire.OpBatch:
			admitted++
			cn.codes = cn.codes[:0]
			failed := false
			applied = false
			for j := 0; j < p.nops; j++ {
				c := wire.CodeFor(cn.errs[vi+j])
				if c != wire.CodeOK {
					failed = true
				}
				if verdictApplied(c) {
					applied = true
				}
				cn.codes = append(cn.codes, c)
			}
			vi += p.nops
			cn.out = wire.AppendBatchReply(cn.out, cn.codes)
			if failed {
				cn.s.met.opErr[p.op].Add(1)
			}
		default: // single PUT/DEL
			admitted++
			err := cn.errs[vi]
			vi++
			if err == nil {
				cn.out = wire.AppendOK(cn.out)
			} else {
				cn.appendError(p.op, err)
				applied = verdictApplied(wire.CodeFor(err))
			}
		}
		if p.hasSeq && p.raw == nil {
			// Dedup bookkeeping: an applied (or evaluated) verdict is
			// cached under its token for replays; a refused-unapplied one
			// releases the token so a retry re-executes.
			if applied {
				cn.sess.complete(p.seq, cn.out[mark:])
			} else {
				cn.sess.cancel(p.seq)
			}
		}
		cn.observe(p.op, p.t0)
	}
	for ; admitted > 0; admitted-- {
		cn.s.release()
	}
	cn.pends = cn.pends[:0]
	cn.refs = cn.refs[:0]
	cn.arena = cn.arena[:0]
}

// materialise rebuilds one deferred op from its arena offsets.
func (cn *conn) materialise(r *opRef) fasp.Op {
	o := fasp.Op{Kind: fasp.OpKind(r.kind), Key: cn.arena[r.koff : r.koff+r.klen]}
	if fasp.OpKind(r.kind) != fasp.OpDelete {
		o.Val = cn.arena[r.voff : r.voff+r.vlen]
	}
	return o
}

// submit materialises the deferred write ops in request order and commits
// them as one KV.Submit, one unit per request; the engine splits them by
// shard. Everything here is conn-owned and reused, so a steady-state flush
// performs no heap allocation.
func (cn *conn) submit() {
	cn.ops, cn.errs, cn.units = cn.ops[:0], cn.errs[:0], cn.units[:0]
	for i := range cn.refs {
		cn.ops = append(cn.ops, cn.materialise(&cn.refs[i]))
		cn.errs = append(cn.errs, nil)
	}
	for i := range cn.pends {
		if n := cn.pends[i].nops; n > 0 {
			cn.units = append(cn.units, int32(n))
		}
	}
	cn.s.kv.Submit(&cn.sub, cn.ops, cn.errs, cn.units)
	cn.s.met.coalesce.Observe(int64(len(cn.ops)))
	for _, n := range cn.sub.Parts() {
		cn.s.met.shardCoalesce.Observe(int64(n))
	}
}

// appendError encodes an engine error with its wire code, shard pin, and
// retry-after hint.
func (cn *conn) appendError(op byte, err error) {
	code := wire.CodeFor(err)
	cn.out = wire.AppendErr(cn.out, code, wire.ShardOf(err), cn.s.retryHintMS(code), err.Error())
	if op > 0 && op < wire.NumOps {
		cn.s.met.opErr[op].Add(1)
	}
}

// serveScan streams [lo, hi] pairs up to the request's limit (capped at
// the server's page size) and the reply byte cap, setting the more-marker
// when truncated.
func (cn *conn) serveScan() {
	limit := cn.s.cfg.ScanLimit
	if cn.req.Limit > 0 && int(cn.req.Limit) < limit {
		limit = int(cn.req.Limit)
	}
	var lo, hi []byte
	if cn.req.HasLo {
		lo = cn.req.Lo
	}
	if cn.req.HasHi {
		hi = cn.req.Hi
	}
	mark := len(cn.out)
	var sw wire.ScanReplyWriter
	sw.Begin(cn.out)
	n, more := 0, false
	fn := func(k, v []byte) bool {
		if cn.req.ExclHi && bytes.Equal(k, hi) {
			// hi is exclusive (a reverse-resume boundary): skip the pair
			// without counting it toward the page, so a resume always
			// delivers at least one fresh pair when the range has one.
			return true
		}
		if n >= limit || sw.Size() > maxScanBytes {
			more = true
			return false
		}
		sw.Pair(k, v)
		n++
		return true
	}
	// The page is limit pairs, one more to learn whether to set the
	// more-marker, and the skipped exclusive bound if there is one.
	budget := limit + 1
	if cn.req.ExclHi {
		budget++
	}
	if err := cn.s.kv.ScanLimit(lo, hi, cn.req.Rev, budget, fn); err != nil {
		cn.out = cn.out[:mark]
		cn.appendError(wire.OpScan, err)
		return
	}
	cn.out = sw.End(more)
}

// statsReply is the STATS response payload (JSON).
type statsReply struct {
	Server obsv.ServerSnapshot `json:"server"`
	Engine shard.Stats         `json:"engine"`
}

func (cn *conn) serveStats() {
	rep := statsReply{
		Server: cn.s.Snapshot(),
		Engine: cn.s.kv.EngineStats(),
	}
	b, err := json.Marshal(rep)
	if err != nil {
		cn.appendError(wire.OpStats, err)
		return
	}
	cn.out = wire.AppendValue(cn.out, wire.CodeOK, b)
}

// observe records one served request's wall latency.
func (cn *conn) observe(op byte, t0 time.Time) {
	if op > 0 && op < wire.NumOps {
		cn.s.met.opWall[op].Observe(time.Since(t0).Nanoseconds())
	}
}

// writeOut flushes the round's accumulated responses to the socket; false
// means the socket is broken (write error or expired write deadline) and
// the connection must close. Responses already handed to a dead socket are
// simply lost — the retry layer's dedup tokens make the replay safe.
func (cn *conn) writeOut() bool {
	if len(cn.out) == 0 {
		return true
	}
	cn.s.met.bytesOut.Add(int64(len(cn.out)))
	if d := cn.s.cfg.WriteTimeout; d > 0 {
		cn.c.SetWriteDeadline(time.Now().Add(d))
	}
	ok := false
	if _, err := cn.bw.Write(cn.out); err == nil {
		ok = cn.bw.Flush() == nil
	}
	cn.out = cn.out[:0]
	return ok
}
