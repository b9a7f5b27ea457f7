package slotted

// MemBuf is a Mem over a flat byte slice: content writes and header changes
// both apply immediately to the image. It backs unit tests and the volatile
// (DRAM) buffer-cache page images of the baseline schemes.
type MemBuf struct {
	Buf []byte
	// OnWrite, if non-nil, observes every write (offset, length); the
	// NVWAL backend uses it for dirty-range tracking.
	OnWrite func(off, n int)
}

// NewMemBuf allocates a zeroed page image of the given size.
func NewMemBuf(size int) *MemBuf { return &MemBuf{Buf: make([]byte, size)} }

// PageSize returns the image size.
func (m *MemBuf) PageSize() int { return len(m.Buf) }

// Read returns a copy of n bytes at off.
func (m *MemBuf) Read(off, n int) []byte {
	out := make([]byte, n)
	copy(out, m.Buf[off:off+n])
	return out
}

// ReadInto copies len(dst) bytes at off into dst (ScratchMem).
func (m *MemBuf) ReadInto(off int, dst []byte) {
	copy(dst, m.Buf[off:off+len(dst)])
}

// Write stores src at off.
func (m *MemBuf) Write(off int, src []byte) {
	copy(m.Buf[off:], src)
	if m.OnWrite != nil {
		m.OnWrite(off, len(src))
	}
}

// HeaderChanged re-encodes the header into the image.
func (m *MemBuf) HeaderChanged(h *Header) {
	enc := h.Encode()
	copy(m.Buf, enc)
	if m.OnWrite != nil {
		m.OnWrite(0, len(enc))
	}
}

// Compute charges nothing: a MemBuf has no simulated machine.
func (m *MemBuf) Compute(int64) {}
