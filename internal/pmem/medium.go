package pmem

import "encoding/binary"

// segShift sizes the medium's segments: 256 KiB, 64 pages of 4 KiB. A
// segment is a whole number of cache lines, so no line crosses one.
const (
	segShift = 18
	segSize  = 1 << segShift
	segMask  = segSize - 1
)

// medium is an arena's backing store, held as a table of fixed-size
// segments. A segment is allocated by the first write that reaches it; a
// segment never written reads as zeros, the content a fresh arena has. So
// the host pays memory for what a run writes back, not for the arena's
// size, much as real PM is mapped rather than copied in. Whether a segment
// is allocated is invisible to the simulated machine: it changes no charge,
// counter or crash point.
type medium struct {
	size int64
	segs [][]byte // segs[i] covers [i<<segShift, (i+1)<<segShift); nil = all zeros
}

func newMedium(size int64) medium {
	return medium{size: size, segs: make([][]byte, (size+segMask)>>segShift)}
}

// read copies the medium at off into dst. An unwritten segment clears its
// part of dst, so a read never shares a zero buffer a bug could write into.
func (m *medium) read(off int64, dst []byte) {
	for len(dst) > 0 {
		o := off & segMask
		n := min(len(dst), int(segSize-o))
		if seg := m.segs[off>>segShift]; seg != nil {
			copy(dst[:n], seg[o:])
		} else {
			clear(dst[:n])
		}
		off += int64(n)
		dst = dst[n:]
	}
}

// writeLine copies one cache line into the medium at line offset l,
// allocating its segment on the first write.
func (m *medium) writeLine(l int64, src *[CacheLineSize]byte) {
	seg := m.segs[l>>segShift]
	if seg == nil {
		seg = m.alloc(l >> segShift)
	}
	copy(seg[l&segMask:], src[:])
}

// alloc allocates segment i; the arena's last segment may be short.
func (m *medium) alloc(i int64) []byte {
	m.segs[i] = make([]byte, min(segSize, m.size-i<<segShift))
	return m.segs[i]
}

// drop frees every segment: the medium reads as zeros again.
func (m *medium) drop() { clear(m.segs) }

// snapshot returns the whole medium as one image.
func (m *medium) snapshot() []byte {
	out := make([]byte, m.size)
	for i, seg := range m.segs {
		copy(out[int64(i)<<segShift:], seg)
	}
	return out
}

// restore replaces the medium with img (len(img) == m.size), allocating
// only the segments whose stretch of img holds a non-zero byte.
func (m *medium) restore(img []byte) {
	for i := range m.segs {
		lo := int64(i) << segShift
		part := img[lo:min(lo+segSize, m.size)]
		if allZero(part) {
			m.segs[i] = nil
			continue
		}
		seg := m.segs[i]
		if seg == nil {
			seg = m.alloc(int64(i))
		}
		copy(seg, part)
	}
}

// held returns the bytes of host memory the allocated segments hold.
func (m *medium) held() int64 {
	var n int64
	for _, seg := range m.segs {
		n += int64(len(seg))
	}
	return n
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
