// Package wire is the faspserver network protocol: a pipelined,
// length-prefixed binary framing shared — via this one package — by the
// server's connection handlers, the Go client, and the load generator, so
// frame encoding exists exactly once.
//
// Every frame is
//
//	[u32 big-endian length][u8 opcode-or-status][payload]
//
// where length covers the opcode byte plus the payload. Requests carry an
// opcode (OpGet .. OpPing); responses carry a status Code. The protocol is
// strictly pipelined: a connection's responses come back in request order,
// so frames need no request ids and a client may keep any number of
// requests in flight.
//
// The decoder is hardened for untrusted peers: a frame length above the
// caller's limit fails with ErrFrameTooBig *before* any allocation, inner
// length fields are validated against the frame's real size before slices
// are built (a forged u32 cannot force an oversized allocation), and an
// unknown opcode is typed ErrBadOpcode. FuzzWireFrame pins all of this.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Request opcodes.
const (
	OpGet   byte = 1 // payload: key
	OpPut   byte = 2 // payload: u32 klen, key, val
	OpDel   byte = 3 // payload: key
	OpBatch byte = 4 // payload: u32 n, n × (u8 kind, u32 klen, key, u32 vlen, val)
	OpScan  byte = 5 // payload: u8 flags, [u32 lolen, lo], [u32 hilen, hi], u32 limit
	OpCount byte = 6 // payload: empty
	OpStats byte = 7 // payload: empty
	OpPing  byte = 8 // payload: empty

	// Session opcodes back the client retry layer's exactly-once
	// semantics. HELLO binds the connection to a session id; the *Seq
	// write variants prefix the base payload with a per-session sequence
	// token the server dedups within a bounded window, so a write
	// replayed after a reconnect is acknowledged from the cached verdict
	// instead of applied twice.
	OpHello    byte = 9  // payload: u64 session id
	OpPutSeq   byte = 10 // payload: u64 seq, then OpPut's payload
	OpDelSeq   byte = 11 // payload: u64 seq, then OpDel's payload
	OpBatchSeq byte = 12 // payload: u64 seq, then OpBatch's payload

	// NumOps bounds the opcode space (valid opcodes are 1..NumOps-1);
	// per-op metric arrays index by opcode.
	NumOps = 13
)

// BaseOp maps a sequenced write opcode to the base opcode it wraps; other
// opcodes map to themselves.
func BaseOp(op byte) byte {
	switch op {
	case OpPutSeq:
		return OpPut
	case OpDelSeq:
		return OpDel
	case OpBatchSeq:
		return OpBatch
	}
	return op
}

// OpName labels an opcode for metrics and logs.
func OpName(op byte) string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDel:
		return "del"
	case OpBatch:
		return "batch"
	case OpScan:
		return "scan"
	case OpCount:
		return "count"
	case OpStats:
		return "stats"
	case OpPing:
		return "ping"
	case OpHello:
		return "hello"
	case OpPutSeq:
		return "put_seq"
	case OpDelSeq:
		return "del_seq"
	case OpBatchSeq:
		return "batch_seq"
	}
	return "unknown"
}

// Scan request flag bits. ScanExclHi makes the hi bound exclusive —
// pairs whose key equals hi are skipped. It exists for reverse paging:
// byte strings have no closed-form predecessor, so a reverse resume
// must re-send the last delivered key as hi and needs the server to
// step past it; without the flag a page whose single pair is that
// boundary key can never make progress. ScanExclHi requires ScanHasHi.
const (
	ScanHasLo   = 1 << 0
	ScanHasHi   = 1 << 1
	ScanReverse = 1 << 2
	ScanExclHi  = 1 << 3
)

// Batch op kinds, mirroring the engine's OpKind values (shard.OpPut etc.);
// the server converts by value, and the table test in errmap_test pins the
// correspondence.
const (
	KindPut    uint8 = 0
	KindInsert uint8 = 1
	KindUpdate uint8 = 2
	KindDelete uint8 = 3
)

// DefaultMaxFrame bounds one frame (opcode + payload) unless the caller
// overrides it.
const DefaultMaxFrame = 1 << 20

// MaxBatchOps bounds the op count of one BATCH frame, independent of the
// frame limit.
const MaxBatchOps = 4096

// Typed protocol errors. The decoder returns these (wrapped with detail);
// the server answers CodeProto and closes the connection, since a framing
// error desynchronises the stream.
var (
	// ErrFrameTooBig reports a frame length over the configured limit.
	ErrFrameTooBig = errors.New("wire: frame exceeds size limit")
	// ErrMalformed reports a frame whose inner structure is inconsistent
	// (truncated fields, lengths past the frame end, trailing bytes).
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrBadOpcode reports an unknown request opcode.
	ErrBadOpcode = errors.New("wire: unknown opcode")
)

// BatchOp is one mutation inside a BATCH request.
type BatchOp struct {
	Kind uint8
	Key  []byte
	Val  []byte
}

// Request is one decoded request frame. Byte slices alias the decode
// buffer and are valid only until the next ReadFrame on that buffer.
type Request struct {
	Op     byte
	Key    []byte    // GET / DEL
	Val    []byte    // PUT
	Ops    []BatchOp // BATCH
	Lo     []byte    // SCAN
	Hi     []byte    // SCAN
	HasLo  bool
	HasHi  bool
	Rev    bool
	ExclHi bool   // SCAN: hi bound is exclusive
	Limit  uint32 // SCAN: max pairs (0 = server default)
	SID    uint64 // HELLO: session id
	Seq    uint64 // PUT_SEQ/DEL_SEQ/BATCH_SEQ: dedup sequence token
	HasSeq bool   // true for the sequenced write opcodes
}

// ReadFrame reads one frame from br, reusing buf when it is large enough,
// and returns the opcode/status byte, the payload (aliasing the returned
// buffer), and the possibly-grown buffer for reuse. A clean EOF before any
// header byte returns io.EOF; a torn header or body returns
// io.ErrUnexpectedEOF. max <= 0 selects DefaultMaxFrame.
func ReadFrame(br *bufio.Reader, max int, buf []byte) (op byte, payload []byte, nbuf []byte, err error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	// Peek+Discard instead of ReadFull into a local array: the array would
	// escape through the io.Reader interface and cost one heap allocation
	// per frame (pinned at zero by TestDecodeAllocFree).
	hdr, err := br.Peek(4)
	if len(hdr) < 4 {
		if err == io.EOF {
			if len(hdr) == 0 {
				return 0, nil, buf, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	br.Discard(4)
	if n < 1 {
		return 0, nil, buf, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if int64(n) > int64(max) {
		return 0, nil, buf, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooBig, n, max)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

// PeekFrame reports whether a complete frame is already buffered in br, so
// a pipelining reader can coalesce without risking a blocking read. It
// returns ErrFrameTooBig/ErrMalformed early when the buffered header is
// already known to be invalid.
func PeekFrame(br *bufio.Reader, max int) (ready bool, err error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if br.Buffered() < 4 {
		return false, nil
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false, nil
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 1 {
		return false, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if int64(n) > int64(max) {
		return false, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooBig, n, max)
	}
	return br.Buffered() >= 4+int(n), nil
}

// BeginFrame appends a frame header (length placeholder + opcode/status)
// to dst and returns the extended slice plus the patch offset for EndFrame.
func BeginFrame(dst []byte, op byte) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, op)
	return dst, start
}

// EndFrame patches the length of the frame opened at start.
func EndFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(dst)-start-4))
	return dst
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return appendU32(appendU32(dst, uint32(v>>32)), uint32(v))
}

func appendBytes(dst, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// --- Request encoders ------------------------------------------------------

// AppendGet appends a GET frame for key.
func AppendGet(dst, key []byte) []byte {
	dst, start := BeginFrame(dst, OpGet)
	dst = append(dst, key...)
	return EndFrame(dst, start)
}

// AppendPut appends a PUT frame for key/val.
func AppendPut(dst, key, val []byte) []byte {
	dst, start := BeginFrame(dst, OpPut)
	dst = appendBytes(dst, key)
	dst = append(dst, val...)
	return EndFrame(dst, start)
}

// AppendDel appends a DEL frame for key.
func AppendDel(dst, key []byte) []byte {
	dst, start := BeginFrame(dst, OpDel)
	dst = append(dst, key...)
	return EndFrame(dst, start)
}

// AppendBatch appends a BATCH frame carrying ops.
func AppendBatch(dst []byte, ops []BatchOp) []byte {
	dst, start := BeginFrame(dst, OpBatch)
	dst = appendU32(dst, uint32(len(ops)))
	for i := range ops {
		dst = append(dst, ops[i].Kind)
		dst = appendBytes(dst, ops[i].Key)
		dst = appendBytes(dst, ops[i].Val)
	}
	return EndFrame(dst, start)
}

// AppendScan appends a SCAN frame. Nil lo/hi are open bounds; limit 0
// accepts the server's default page size; exclHi (valid only with a
// non-nil hi) makes the hi bound exclusive.
func AppendScan(dst, lo, hi []byte, reverse, exclHi bool, limit uint32) []byte {
	dst, start := BeginFrame(dst, OpScan)
	var flags byte
	if lo != nil {
		flags |= ScanHasLo
	}
	if hi != nil {
		flags |= ScanHasHi
		if exclHi {
			flags |= ScanExclHi
		}
	}
	if reverse {
		flags |= ScanReverse
	}
	dst = append(dst, flags)
	if lo != nil {
		dst = appendBytes(dst, lo)
	}
	if hi != nil {
		dst = appendBytes(dst, hi)
	}
	dst = appendU32(dst, limit)
	return EndFrame(dst, start)
}

// AppendEmptyReq appends a payload-less request frame (COUNT/STATS/PING).
func AppendEmptyReq(dst []byte, op byte) []byte {
	dst, start := BeginFrame(dst, op)
	return EndFrame(dst, start)
}

// AppendHello appends a HELLO frame binding the connection to session sid.
func AppendHello(dst []byte, sid uint64) []byte {
	dst, start := BeginFrame(dst, OpHello)
	dst = appendU64(dst, sid)
	return EndFrame(dst, start)
}

// AppendPutSeq appends a sequenced PUT frame.
func AppendPutSeq(dst []byte, seq uint64, key, val []byte) []byte {
	dst, start := BeginFrame(dst, OpPutSeq)
	dst = appendU64(dst, seq)
	dst = appendBytes(dst, key)
	dst = append(dst, val...)
	return EndFrame(dst, start)
}

// AppendDelSeq appends a sequenced DEL frame.
func AppendDelSeq(dst []byte, seq uint64, key []byte) []byte {
	dst, start := BeginFrame(dst, OpDelSeq)
	dst = appendU64(dst, seq)
	dst = append(dst, key...)
	return EndFrame(dst, start)
}

// AppendBatchSeq appends a sequenced BATCH frame.
func AppendBatchSeq(dst []byte, seq uint64, ops []BatchOp) []byte {
	dst, start := BeginFrame(dst, OpBatchSeq)
	dst = appendU64(dst, seq)
	dst = appendU32(dst, uint32(len(ops)))
	for i := range ops {
		dst = append(dst, ops[i].Kind)
		dst = appendBytes(dst, ops[i].Key)
		dst = appendBytes(dst, ops[i].Val)
	}
	return EndFrame(dst, start)
}

// --- Request decoding ------------------------------------------------------

// rd is a bounds-checked cursor over one payload.
type rd struct {
	b   []byte
	off int
}

func (r *rd) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("%w: truncated byte field", ErrMalformed)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *rd) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("%w: truncated u32 field", ErrMalformed)
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *rd) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("%w: truncated u64 field", ErrMalformed)
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *rd) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("%w: length %d past frame end", ErrMalformed, n)
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v, nil
}

func (r *rd) rest() []byte {
	v := r.b[r.off:]
	r.off = len(r.b)
	return v
}

func (r *rd) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b)-r.off)
	}
	return nil
}

// ParseRequest decodes a request payload into req. Slices in req alias
// payload. req.Ops is reused across calls when its capacity allows.
func ParseRequest(op byte, payload []byte, req *Request) error {
	*req = Request{Op: op, Ops: req.Ops[:0]}
	r := rd{b: payload}
	base := op
	switch op {
	case OpHello:
		sid, err := r.u64()
		if err != nil {
			return err
		}
		req.SID = sid
		return r.done()
	case OpPutSeq, OpDelSeq, OpBatchSeq:
		seq, err := r.u64()
		if err != nil {
			return err
		}
		req.Seq, req.HasSeq = seq, true
		base = BaseOp(op)
	}
	switch base {
	case OpGet, OpDel:
		req.Key = r.rest()
		return nil
	case OpPut:
		key, err := r.bytes()
		if err != nil {
			return err
		}
		req.Key, req.Val = key, r.rest()
		return nil
	case OpBatch:
		n, err := r.u32()
		if err != nil {
			return err
		}
		if n > MaxBatchOps {
			return fmt.Errorf("%w: batch of %d ops (limit %d)", ErrMalformed, n, MaxBatchOps)
		}
		// Every op costs at least 9 bytes (kind + two u32 lengths), so a
		// forged count cannot force an allocation beyond the frame's size.
		if uint64(n)*9 > uint64(len(r.b)-r.off) {
			return fmt.Errorf("%w: batch count %d exceeds frame capacity", ErrMalformed, n)
		}
		for i := uint32(0); i < n; i++ {
			kind, err := r.u8()
			if err != nil {
				return err
			}
			if kind > KindDelete {
				return fmt.Errorf("%w: batch op kind %d", ErrMalformed, kind)
			}
			key, err := r.bytes()
			if err != nil {
				return err
			}
			val, err := r.bytes()
			if err != nil {
				return err
			}
			req.Ops = append(req.Ops, BatchOp{Kind: kind, Key: key, Val: val})
		}
		return r.done()
	case OpScan:
		flags, err := r.u8()
		if err != nil {
			return err
		}
		if flags&^(ScanHasLo|ScanHasHi|ScanReverse|ScanExclHi) != 0 {
			return fmt.Errorf("%w: scan flags %#x", ErrMalformed, flags)
		}
		if flags&ScanExclHi != 0 && flags&ScanHasHi == 0 {
			return fmt.Errorf("%w: scan exclusive-hi flag without a hi bound", ErrMalformed)
		}
		req.HasLo, req.HasHi, req.Rev = flags&ScanHasLo != 0, flags&ScanHasHi != 0, flags&ScanReverse != 0
		req.ExclHi = flags&ScanExclHi != 0
		if req.HasLo {
			if req.Lo, err = r.bytes(); err != nil {
				return err
			}
		}
		if req.HasHi {
			if req.Hi, err = r.bytes(); err != nil {
				return err
			}
		}
		if req.Limit, err = r.u32(); err != nil {
			return err
		}
		return r.done()
	case OpCount, OpStats, OpPing:
		return r.done()
	}
	return fmt.Errorf("%w: %#x", ErrBadOpcode, op)
}

// --- Response encoding / decoding -----------------------------------------

// AppendOK appends a bare OK response (PUT/DEL/PING acks).
func AppendOK(dst []byte) []byte {
	dst, start := BeginFrame(dst, byte(CodeOK))
	return EndFrame(dst, start)
}

// AppendValue appends an OK response carrying an opaque payload (GET hit,
// COUNT, STATS).
func AppendValue(dst []byte, code Code, payload []byte) []byte {
	dst, start := BeginFrame(dst, byte(code))
	dst = append(dst, payload...)
	return EndFrame(dst, start)
}

// AppendCount appends a COUNT response.
func AppendCount(dst []byte, n uint64) []byte {
	dst, start := BeginFrame(dst, byte(CodeOK))
	dst = appendU64(dst, n)
	return EndFrame(dst, start)
}

// ParseCount decodes a COUNT response payload.
func ParseCount(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: count payload of %d bytes", ErrMalformed, len(payload))
	}
	return binary.BigEndian.Uint64(payload), nil
}

// AppendErr appends an error response: code, the shard the failure is
// pinned to (-1 when not shard-specific), a retry-after hint in
// milliseconds (0 = none; meaningful for BUSY and UNAVAIL, where it tells a
// retrying client how long the condition is expected to last — e.g. the
// server's auto-Heal cadence for a degraded shard), and the error text.
func AppendErr(dst []byte, code Code, shard int32, retryMS uint32, msg string) []byte {
	dst, start := BeginFrame(dst, byte(code))
	dst = appendU32(dst, uint32(shard))
	dst = appendU32(dst, retryMS)
	dst = append(dst, msg...)
	return EndFrame(dst, start)
}

// ParseErr decodes an error response payload. A payload too short to carry
// the shard/retry prefix (a foreign peer) yields shard -1, hint 0, and the
// whole payload as message.
func ParseErr(payload []byte) (shard int32, retryMS uint32, msg string) {
	if len(payload) < 8 {
		return -1, 0, string(payload)
	}
	return int32(binary.BigEndian.Uint32(payload)),
		binary.BigEndian.Uint32(payload[4:]),
		string(payload[8:])
}

// AppendBatchReply appends a BATCH response: one Code per op, aligned with
// the request's op order.
func AppendBatchReply(dst []byte, codes []Code) []byte {
	dst, start := BeginFrame(dst, byte(CodeOK))
	dst = appendU32(dst, uint32(len(codes)))
	for _, c := range codes {
		dst = append(dst, byte(c))
	}
	return EndFrame(dst, start)
}

// ParseBatchReply decodes a BATCH response payload, reusing codes.
func ParseBatchReply(payload []byte, codes []Code) ([]Code, error) {
	r := rd{b: payload}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) != uint64(len(payload)-4) {
		return nil, fmt.Errorf("%w: batch reply count %d vs %d bytes", ErrMalformed, n, len(payload)-4)
	}
	codes = codes[:0]
	for i := uint32(0); i < n; i++ {
		codes = append(codes, Code(payload[4+i]))
	}
	return codes, nil
}

// ScanReplyWriter builds a SCAN response incrementally so the server can
// stream pairs without an intermediate slice.
type ScanReplyWriter struct {
	buf   []byte
	start int
	nOff  int
	n     uint32
}

// Begin opens the response on dst.
func (sw *ScanReplyWriter) Begin(dst []byte) {
	sw.buf, sw.start = BeginFrame(dst, byte(CodeOK))
	sw.nOff = len(sw.buf)
	sw.buf = appendU32(sw.buf, 0)
	sw.n = 0
}

// Pair appends one key/value pair.
func (sw *ScanReplyWriter) Pair(k, v []byte) {
	sw.buf = appendBytes(sw.buf, k)
	sw.buf = appendBytes(sw.buf, v)
	sw.n++
}

// Size returns the response size accumulated so far.
func (sw *ScanReplyWriter) Size() int { return len(sw.buf) - sw.start }

// End seals the response with the truncation marker and returns the full
// buffer.
func (sw *ScanReplyWriter) End(more bool) []byte {
	m := byte(0)
	if more {
		m = 1
	}
	sw.buf = append(sw.buf, m)
	binary.BigEndian.PutUint32(sw.buf[sw.nOff:], sw.n)
	return EndFrame(sw.buf, sw.start)
}

// ParseScanReply decodes a SCAN response payload, calling fn for each pair
// (slices alias payload) and returning the truncation marker.
func ParseScanReply(payload []byte, fn func(k, v []byte) bool) (more bool, err error) {
	r := rd{b: payload}
	n, err := r.u32()
	if err != nil {
		return false, err
	}
	stopped := false
	for i := uint32(0); i < n; i++ {
		k, err := r.bytes()
		if err != nil {
			return false, err
		}
		v, err := r.bytes()
		if err != nil {
			return false, err
		}
		if !stopped && !fn(k, v) {
			stopped = true
		}
	}
	m, err := r.u8()
	if err != nil {
		return false, err
	}
	if err := r.done(); err != nil {
		return false, err
	}
	return m != 0, nil
}
