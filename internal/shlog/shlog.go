// Package shlog implements the paper's slot-header log (§3.3): a small
// PM-resident redo log that holds only the *metadata* (slot headers) of the
// pages a transaction dirtied, never the records themselves — those are
// already persistent, written in-place into page free space.
//
// Protocol (the order is the entire correctness argument):
//
//  1. During the transaction, updated slot headers are appended to the log
//     with plain stores — no flushes, no ordering constraints, because the
//     frames are meaningless until the commit mark exists.
//  2. At commit, the transaction id, a checksum folded over the frames, the
//     id and the length, and finally the committed length are stored in the
//     log's header line; the header line and the frames are flushed in one
//     pass and fenced once. The commit mark is the header line as a whole:
//     a non-zero length whose checksum matches the frames behind it. Nothing
//     orders the frames before the length, so until the fence any subset of
//     these lines may have reached PM; the checksum tells a whole commit
//     from a torn one, and a torn one was never acknowledged.
//  3. The committed headers are immediately ("eagerly") checkpointed into
//     their pages by the caller, and the log is truncated by atomically
//     zeroing the length word.
//
// Recovery: a zero length means no transaction was mid-commit — ignore the
// log. A non-zero length whose checksum matches well-formed frames means
// the transaction committed but checkpointing may not have finished —
// replay the frames (idempotent) and truncate. Any other non-zero length is
// a commit that never happened: truncate it before anything else, or a later
// transaction that appends byte-identical frames would complete it.
//
// A frame is a prefix of a slot header, not necessarily all of it: it may
// end before the offset array does. The caller cuts it after the last byte
// that differs from the page's committed header, so the bytes after it are
// unchanged by construction — PM already holds them — and replaying the
// prefix restores the whole header. Frames of one page replay in order, so
// each must reach as far as every earlier one did.
package shlog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fasp/internal/pmem"
)

const (
	logHeaderSize = 40                  // magic, length, txid, checksum(8), reserved
	frameHeader   = 8                   // pageNo u32, hdrLen u16, pad u16
	magic         = 0x53484C4F_47303100 // "SHLOG01\0"
)

// Errors reported by the log.
var (
	// ErrLogFull means the frame region is exhausted; the transaction is
	// too large for the configured log size.
	ErrLogFull = errors.New("shlog: log full")
	// ErrCorrupt reports a region that holds no log (bad magic). A torn
	// commit is not an error: Frames reports it.
	ErrCorrupt = errors.New("shlog: log corrupt")
)

// Frame is one decoded slot-header log entry.
type Frame struct {
	PageNo uint32
	Header []byte
}

// Log is a slot-header log in a PM arena region [base, base+size).
type Log struct {
	a    *pmem.Arena
	base int64
	size int64
	// cursor is the volatile append position (bytes past the log header).
	// It does not need to be persistent: a crash before commit discards
	// the frames wholesale.
	cursor   int64
	hash     uint64 // running FNV-1a over appended frame bytes
	frameBuf []byte // reusable frame-assembly scratch
}

// FNV-1a parameters, matching hash/fnv's 64-bit variant bit for bit: the
// checksums are persisted and re-verified at recovery.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFold advances an FNV-1a running hash over b.
func fnvFold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// chain folds one more chunk into the log's checksum: a fresh FNV-1a state
// is seeded with the previous checksum's little-endian bytes, then b.
func chain(h uint64, b []byte) uint64 {
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], h)
	return fnvFold(fnvFold(fnvOffset64, seed[:]), b)
}

// seal folds the transaction id and the committed length into the frames'
// checksum, giving the value Commit stores in the header line.
func seal(h, txid, length uint64) uint64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], txid)
	binary.LittleEndian.PutUint64(b[8:], length)
	return chain(h, b[:])
}

// Format initialises an empty log over the region.
func Format(a *pmem.Arena, base, size int64) *Log {
	if size < logHeaderSize+64 {
		panic("shlog: region too small")
	}
	l := &Log{a: a, base: base, size: size}
	a.StoreU64(base+8, 0)  // length: not committed
	a.StoreU64(base+16, 0) // txid
	a.StoreU64(base+24, 0) // checksum
	a.StoreU64(base, magic)
	a.Persist(base, logHeaderSize)
	l.reset()
	return l
}

// Open attaches to an existing log, verifying the magic. The returned log
// may hold a committed transaction awaiting replay; check Committed.
func Open(a *pmem.Arena, base, size int64) (*Log, error) {
	if a.LoadU64(base) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	l := &Log{a: a, base: base, size: size}
	l.reset()
	return l, nil
}

func (l *Log) reset() {
	l.cursor = 0
	l.hash = fnvOffset64
}

// Begin starts accumulating frames for a new transaction, discarding any
// unappended state. It must not be called while a committed transaction
// awaits replay.
func (l *Log) Begin() {
	l.reset()
}

// AppendHeader stores one page's updated slot header into the log with
// plain stores (no flush — ordering is irrelevant before the commit mark).
func (l *Log) AppendHeader(pageNo uint32, hdr []byte) error {
	need := int64(frameHeader + len(hdr))
	if pad := need % 8; pad != 0 {
		need += 8 - pad
	}
	if logHeaderSize+l.cursor+need > l.size {
		return fmt.Errorf("%w: need %d bytes", ErrLogFull, need)
	}
	if int64(cap(l.frameBuf)) < need {
		l.frameBuf = make([]byte, need)
	}
	buf := l.frameBuf[:need]
	for i := range buf {
		buf[i] = 0 // padding bytes must not leak previous frame contents
	}
	binary.LittleEndian.PutUint32(buf, pageNo)
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(hdr)))
	copy(buf[frameHeader:], hdr)
	l.a.Store(l.base+logHeaderSize+l.cursor, buf)
	l.cursor += need
	// Fold the frame into the running checksum (pure CPU work), exactly as
	// recovery's verifier does.
	l.hash = chain(l.hash, buf)
	l.a.Sys().Compute(int64(len(buf)) / 8)
	return nil
}

// PendingBytes reports the bytes of frames appended since Begin.
func (l *Log) PendingBytes() int64 { return l.cursor }

// Commit makes the appended frames durable and commits them. It stores the
// transaction id, the checksum sealed over the frames, the id and the length,
// and last the length, all in the header line; then it writes the header line
// and the frames back in one pass and fences once. A crash before the fence
// leaves the transaction committed if every one of those lines reached PM,
// and entirely absent otherwise; after Commit returns, it stays committed.
func (l *Log) Commit(txid uint64) {
	l.a.StoreU64(l.base+16, txid)
	l.a.StoreU64(l.base+24, seal(l.hash, txid, uint64(l.cursor)))
	l.a.StoreU64(l.base+8, uint64(l.cursor))
	l.a.Sys().Compute(2)
	l.a.Persist(l.base, logHeaderSize+int(l.cursor))
}

// Committed reports whether the log holds a committed, un-truncated
// transaction, returning its id.
func (l *Log) Committed() (txid uint64, ok bool) {
	txid, frames, _ := l.decode()
	return txid, frames != nil
}

// Frames decodes the committed transaction's frames for replay; it returns
// none when the log holds no commit. torn reports a non-zero length that is
// not a whole commit — a length past the log, a malformed frame, or a
// checksum that does not match: a commit that never happened, which the
// caller must Truncate before the log takes another transaction.
func (l *Log) Frames() (frames []Frame, torn bool) {
	_, frames, torn = l.decode()
	return frames, torn
}

// decode validates the log image. A frame is well-formed when its body fits
// the committed length and its pad bytes are zero, as AppendHeader writes
// them; the checksum must then match the frames, the id and the length.
func (l *Log) decode() (txid uint64, frames []Frame, torn bool) {
	length := int64(l.a.LoadU64(l.base + 8))
	if length == 0 {
		return 0, nil, false
	}
	if length < 0 || length > l.size-logHeaderSize {
		return 0, nil, true
	}
	txid = l.a.LoadU64(l.base + 16)
	raw := l.a.Read(l.base+logHeaderSize, int(length))
	hash := uint64(fnvOffset64)
	for pos := int64(0); pos < length; {
		if pos+frameHeader > length {
			return 0, nil, true
		}
		pageNo := binary.LittleEndian.Uint32(raw[pos:])
		hdrLen := int64(binary.LittleEndian.Uint16(raw[pos+4:]))
		need := frameHeader + hdrLen
		if pad := need % 8; pad != 0 {
			need += 8 - pad
		}
		if pos+need > length || !zero(raw[pos+6:pos+frameHeader]) || !zero(raw[pos+frameHeader+hdrLen:pos+need]) {
			return 0, nil, true
		}
		hash = chain(hash, raw[pos:pos+need])
		frames = append(frames, Frame{
			PageNo: pageNo,
			Header: append([]byte(nil), raw[pos+frameHeader:pos+frameHeader+hdrLen]...),
		})
		pos += need
	}
	if l.a.LoadU64(l.base+24) != seal(hash, txid, uint64(length)) {
		return 0, nil, true
	}
	return txid, frames, false
}

// zero reports whether b holds only zero bytes.
func zero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Truncate clears the commit mark after checkpointing completes. The log is
// then reusable for the next transaction.
func (l *Log) Truncate() {
	l.a.StoreU64(l.base+8, 0)
	l.a.Persist(l.base+8, 8)
	l.reset()
}
