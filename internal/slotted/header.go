// Package slotted implements the slotted-page structure of the paper (§3.1):
// a fixed-size page holding variable-length records, with a slot header at
// the front (record count, content-area start, record-offset array), free
// space in the middle, and record cells growing from the tail.
//
// The slot header doubles as the page's commit mark: none of the package's
// mutating operations touch previously written record bytes, so installing a
// new header image atomically (via HTM in-place commit, or via slot-header
// logging plus checkpointing) transitions the page between consistent states.
//
// Layout of a page of size P:
//
//	off 0  : type byte (leaf / interior / meta / free)
//	off 1  : flags; bit 0 is FlagSoleFree
//	off 2  : number of cells (uint16)
//	off 4  : content-area start (uint16; 0 on a fresh page means P)
//	off 6  : free bytes in the free list (uint16)
//	off 8  : free-list head offset (uint16; 0 = empty; NOT failure-atomic)
//	off 10 : aux (uint32): rightmost child (interior); 0 on a leaf
//	off 14 : record-offset array, ncells × uint16, sorted by key
//	...    : gap (unallocated)
//	...    : cell content area: cells and free blocks, through end of page
//
// The failure-atomic commit unit is the prefix [0, 14+2·ncells). With a
// 64-byte cache line, an in-place (HTM) commit therefore supports up to
// (64−14)/2 = 25 records per leaf; slot-header logging has no such limit.
package slotted

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Page type bytes (values chosen after SQLite's b-tree page flags).
const (
	TypeFree     byte = 0x00
	TypeMeta     byte = 0x01
	TypeInterior byte = 0x05
	TypeLeaf     byte = 0x0D
)

// Structural constants.
const (
	// HeaderFixedSize is the size of the header before the offset array.
	HeaderFixedSize = 14
	// MinFreeBlock is the smallest representable free block ({size,next}).
	MinFreeBlock = 4
	// MaxInPlaceCells is the largest offset-array length whose header fits
	// one cache line, the hardware limit for HTM in-place commits (§4.2).
	MaxInPlaceCells = (64 - HeaderFixedSize) / 2
)

// FlagSoleFree, set in Header.Flags, says the free list is exactly one block
// and the slot header describes it: the block starts at FreeLst and holds
// Free bytes (net of pending frees), and its first four bytes are not a
// {size,next} header. A free-list update that only replaces a sole block
// with another therefore writes nothing outside the commit image.
const FlagSoleFree byte = 1 << 0

// Errors reported by page operations.
var (
	// ErrPageFull means the page lacks total free space for the cell; the
	// caller must split.
	ErrPageFull = errors.New("slotted: page full")
	// ErrNeedsDefrag means total free space suffices but no contiguous run
	// does; the caller must make one first, by moving cells (Relocate) or
	// by defragmenting the page copy-on-write.
	ErrNeedsDefrag = errors.New("slotted: page needs defragmentation")
	// ErrCorrupt reports a malformed page image.
	ErrCorrupt = errors.New("slotted: page corrupt")
	// ErrDuplicate reports an insert of a key already present.
	ErrDuplicate = errors.New("slotted: duplicate key")
	// ErrNotFound reports a lookup of an absent key or cell index.
	ErrNotFound = errors.New("slotted: not found")
)

// Header is the decoded slot header. While a Page handle is open, Header is
// the authoritative copy; the encoded bytes in the underlying memory are
// whatever the commit protocol has installed so far.
type Header struct {
	Type    byte
	Flags   byte
	Content uint16 // content-area start; never 0 once initialised
	Free    uint16 // total bytes in the free list (plus pending frees)
	FreeLst uint16 // free-list head offset; 0 = empty; not failure-atomic
	Aux     uint32 // interior: rightmost child page; leaf: always 0
	Offsets []uint16
}

// EncodedLen returns the byte length of the encoded header.
func (h *Header) EncodedLen() int { return HeaderFixedSize + 2*len(h.Offsets) }

// Encode renders the header into a fresh byte slice.
func (h *Header) Encode() []byte {
	return h.EncodeInto(nil)
}

// EncodeInto renders the header into buf, reusing its capacity when it
// suffices, and returns the encoded bytes. The commit schemes call this with
// a per-transaction scratch buffer so the hot path does not allocate.
func (h *Header) EncodeInto(buf []byte) []byte {
	n := h.EncodedLen()
	var b []byte
	if cap(buf) >= n {
		b = buf[:n]
	} else {
		b = make([]byte, n)
	}
	b[0] = h.Type
	b[1] = h.Flags
	binary.LittleEndian.PutUint16(b[2:], uint16(len(h.Offsets)))
	binary.LittleEndian.PutUint16(b[4:], h.Content)
	binary.LittleEndian.PutUint16(b[6:], h.Free)
	binary.LittleEndian.PutUint16(b[8:], h.FreeLst)
	binary.LittleEndian.PutUint32(b[10:], h.Aux)
	for i, o := range h.Offsets {
		binary.LittleEndian.PutUint16(b[HeaderFixedSize+2*i:], o)
	}
	return b
}

// Clone deep-copies the header.
func (h *Header) Clone() Header {
	c := *h
	c.Offsets = append([]uint16(nil), h.Offsets...)
	return c
}

// CopyTo deep-copies h into dst, reusing dst.Offsets's capacity.
func (h *Header) CopyTo(dst *Header) {
	offs := append(dst.Offsets[:0], h.Offsets...)
	*dst = *h
	dst.Offsets = offs
}

// DecodeHeader parses a header from the start of a page image prefix. The
// prefix must contain at least HeaderFixedSize bytes and the full offset
// array (callers read HeaderFixedSize first, inspect ncells, then reread).
func DecodeHeader(b []byte, pageSize int) (Header, error) {
	var h Header
	if err := DecodeHeaderInto(&h, b, pageSize); err != nil {
		return Header{}, err
	}
	return h, nil
}

// DecodeHeaderInto parses a header into h, reusing h.Offsets's capacity.
func DecodeHeaderInto(h *Header, b []byte, pageSize int) error {
	if len(b) < HeaderFixedSize {
		return fmt.Errorf("%w: header prefix too short", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(b[2:]))
	if len(b) < HeaderFixedSize+2*n {
		return fmt.Errorf("%w: offset array truncated (ncells=%d)", ErrCorrupt, n)
	}
	offsets := h.Offsets
	if cap(offsets) >= n {
		offsets = offsets[:n]
	} else {
		offsets = make([]uint16, n)
	}
	*h = Header{
		Type:    b[0],
		Flags:   b[1],
		Content: binary.LittleEndian.Uint16(b[4:]),
		Free:    binary.LittleEndian.Uint16(b[6:]),
		FreeLst: binary.LittleEndian.Uint16(b[8:]),
		Aux:     binary.LittleEndian.Uint32(b[10:]),
		Offsets: offsets,
	}
	if h.Content == 0 {
		h.Content = uint16(pageSize)
	}
	// Byte by byte from a slice cut to the array: 1.6–1.9× faster than
	// binary.LittleEndian.Uint16 at a computed offset, on every page open
	// that decodes.
	src := b[HeaderFixedSize : HeaderFixedSize+2*n]
	for i := range h.Offsets {
		h.Offsets[i] = uint16(src[2*i]) | uint16(src[2*i+1])<<8
	}
	if int(h.Content) > pageSize {
		return fmt.Errorf("%w: content start %d beyond page size %d", ErrCorrupt, h.Content, pageSize)
	}
	return nil
}
