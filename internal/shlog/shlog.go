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
//  2. At commit, the frame region is flushed and fenced, the checksum and
//     transaction id are written and flushed, and finally the committed
//     length — a single 8-byte failure-atomic PM word — is written and
//     flushed. That word is the transaction's commit mark.
//  3. The committed headers are immediately ("eagerly") checkpointed into
//     their pages by the caller, and the log is truncated by atomically
//     zeroing the length word.
//
// Recovery: a zero length means no transaction was mid-commit — ignore the
// log. A non-zero length with a valid checksum means the transaction
// committed but checkpointing may not have finished — replay the frames
// (idempotent) and truncate.
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
	"hash/fnv"

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
	// ErrCorrupt reports an invalid log image (bad magic or checksum).
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
// checksums are persisted and re-verified by Frames at recovery.
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
	// Fold the frame into the running checksum (pure CPU work). The fold
	// seeds a fresh FNV-1a state with the previous hash's little-endian
	// bytes, exactly as recovery's verifier does.
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], l.hash)
	l.hash = fnvFold(fnvFold(fnvOffset64, seed[:]), buf)
	l.a.Sys().Compute(int64(len(buf)) / 8)
	return nil
}

// PendingBytes reports the bytes of frames appended since Begin.
func (l *Log) PendingBytes() int64 { return l.cursor }

// Commit makes the appended frames durable and writes the commit mark.
// After Commit returns, a crash at any point leaves the transaction
// committed; before the final length store becomes durable, it leaves the
// transaction entirely absent.
func (l *Log) Commit(txid uint64) {
	// 1. Flush the frame region; fence.
	l.a.Flush(l.base+logHeaderSize, int(l.cursor))
	l.a.Sys().Fence()
	// 2. Auxiliary commit metadata, flushed before the mark.
	l.a.StoreU64(l.base+16, txid)
	l.a.StoreU64(l.base+24, l.hash)
	l.a.Persist(l.base+16, 16)
	// 3. The commit mark: one failure-atomic 8-byte store.
	l.a.StoreU64(l.base+8, uint64(l.cursor))
	l.a.Persist(l.base+8, 8)
}

// Committed reports whether the log holds a committed, un-truncated
// transaction, returning its id.
func (l *Log) Committed() (txid uint64, ok bool) {
	if l.a.LoadU64(l.base+8) == 0 {
		return 0, false
	}
	return l.a.LoadU64(l.base + 16), true
}

// Frames decodes the committed frames for replay, verifying the checksum.
func (l *Log) Frames() ([]Frame, error) {
	length := int64(l.a.LoadU64(l.base + 8))
	if length == 0 {
		return nil, nil
	}
	if logHeaderSize+length > l.size {
		return nil, fmt.Errorf("%w: committed length %d exceeds log", ErrCorrupt, length)
	}
	raw := l.a.Read(l.base+logHeaderSize, int(length))
	// Verify the checksum by refolding frame by frame.
	var frames []Frame
	hash := fnv.New64a().Sum64()
	for pos := int64(0); pos < length; {
		if pos+frameHeader > length {
			return nil, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
		}
		pageNo := binary.LittleEndian.Uint32(raw[pos:])
		hdrLen := int64(binary.LittleEndian.Uint16(raw[pos+4:]))
		need := frameHeader + hdrLen
		if pad := need % 8; pad != 0 {
			need += 8 - pad
		}
		if pos+need > length {
			return nil, fmt.Errorf("%w: truncated frame body", ErrCorrupt)
		}
		h := fnv.New64a()
		var seed [8]byte
		binary.LittleEndian.PutUint64(seed[:], hash)
		h.Write(seed[:])
		h.Write(raw[pos : pos+need])
		hash = h.Sum64()
		frames = append(frames, Frame{
			PageNo: pageNo,
			Header: append([]byte(nil), raw[pos+frameHeader:pos+frameHeader+hdrLen]...),
		})
		pos += need
	}
	if stored := l.a.LoadU64(l.base + 24); stored != hash {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return frames, nil
}

// Truncate clears the commit mark after checkpointing completes. The log is
// then reusable for the next transaction.
func (l *Log) Truncate() {
	l.a.StoreU64(l.base+8, 0)
	l.a.Persist(l.base+8, 8)
	l.reset()
}
