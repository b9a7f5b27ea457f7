package pmem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// cacheLine is one slot of the CPU-cache overlay slab. It always holds the
// full current content of its line. Dirty lines differ from the medium;
// clean lines mirror it (kept resident to model the last-level cache — the
// paper notes insertion time does not scale linearly with PM latency
// "because of the computation time and CPU cache effect").
//
// Replacement order is intrusive: next/prev thread a circular FIFO ring
// through the slab slots, so touching, requeueing, and evicting lines never
// allocates. Free slots reuse next as the free-list link.
type cacheLine struct {
	buf   [CacheLineSize]byte
	off   int64 // line offset this slot caches (valid while resident)
	next  int32 // FIFO ring successor (or next free slot when on free list)
	prev  int32 // FIFO ring predecessor
	dirty bool
}

// Arena is one contiguous region of simulated memory behind a CPU-cache
// overlay. PM arenas persist flushed data across crashes; DRAM arenas lose
// everything. Offsets are byte addresses within the arena. Arenas are not
// safe for concurrent use.
//
// Cache model: a bounded set of resident lines with FIFO replacement.
// Misses pay the medium's read latency (loads and write-allocates alike);
// hits pay the cache-hit cost. CLFLUSH writes a dirty line back (paying the
// write latency) and leaves it resident clean. Dirty PM lines are never
// replaced silently — the protocols under test flush what they dirty, and
// pinning keeps crash testing strictly adversarial: unflushed data survives
// a crash only via the explicit eviction lottery in CrashOptions. Dirty
// DRAM lines are written back on replacement at the DRAM write cost.
//
// Overlay representation: resident lines live in a flat slab ([]cacheLine)
// located by a direct table with one entry per line of the arena, and FIFO
// order is the intrusive ring threaded through the slots. The hot path (hit
// lookup, miss fill, eviction, flush) performs no Go allocation once the
// slab has warmed up. The slab is bounded by the resident set; the table
// costs 4 bytes per line of the arena, resident or not. The medium is
// allocated a segment at a time, by the first write that reaches it. The
// event sequence (hits, fills, write-backs, clock advances) is identical to
// the reference map+slice implementation.
type Arena struct {
	name     string
	kind     Kind
	sys      *System
	med      medium      // the medium (durable for PM, volatile for DRAM)
	slab     []cacheLine // slot storage; grows monotonically, capacity reused
	index    []int32     // index[line number] = slab slot + 1; 0 = not resident
	freeHead int32       // free-slot list head (-1 = none)
	ringHead int32       // FIFO ring head = oldest resident line (-1 = empty)
	nres     int         // resident line count
	maxLines int
	readNS   int64
	writeNS  int64
	stats    Stats
	crashBuf []int64 // scratch for crash's sorted dirty-offset sweep
}

const noSlot = int32(-1)

// --- Direct line table ---------------------------------------------------

// lookup returns the slab slot caching line l, or noSlot. It only reads the
// table, so concurrent Peeks may call it; nothing may mutate the arena
// meanwhile.
func (a *Arena) lookup(l int64) int32 {
	return a.index[l>>lineShift] - 1
}

// --- Slab slots and the intrusive FIFO ring ------------------------------

// allocSlot returns a free slab slot, reusing freed slots before growing.
func (a *Arena) allocSlot() int32 {
	if s := a.freeHead; s != noSlot {
		a.freeHead = a.slab[s].next
		return s
	}
	if len(a.slab) < cap(a.slab) {
		a.slab = a.slab[:len(a.slab)+1]
	} else {
		a.slab = append(a.slab, cacheLine{})
	}
	return int32(len(a.slab) - 1)
}

// freeSlot pushes a slot onto the free list.
func (a *Arena) freeSlot(s int32) {
	a.slab[s].next = a.freeHead
	a.freeHead = s
}

// ringPushBack appends slot s at the tail of the FIFO ring (newest).
func (a *Arena) ringPushBack(s int32) {
	if a.ringHead == noSlot {
		a.ringHead = s
		a.slab[s].next = s
		a.slab[s].prev = s
		return
	}
	head := a.ringHead
	tail := a.slab[head].prev
	a.slab[tail].next = s
	a.slab[s].prev = tail
	a.slab[s].next = head
	a.slab[head].prev = s
}

// eachResident calls fn for every resident line, oldest first.
func (a *Arena) eachResident(fn func(*cacheLine)) {
	h := a.ringHead
	if h == noSlot {
		return
	}
	for s := h; ; {
		fn(&a.slab[s])
		if s = a.slab[s].next; s == h {
			return
		}
	}
}

// ringPopFront unlinks and returns the oldest slot (ring must be non-empty).
func (a *Arena) ringPopFront() int32 {
	s := a.ringHead
	next := a.slab[s].next
	if next == s {
		a.ringHead = noSlot
		return s
	}
	prev := a.slab[s].prev
	a.slab[prev].next = next
	a.slab[next].prev = prev
	a.ringHead = next
	return s
}

// resetOverlay drops every resident line and returns the overlay to its
// empty state, keeping the slab capacity for reuse. Only resident lines have
// table entries, so it clears those by walking the ring: the table is
// arena-sized and a crash sweep resets it tens of thousands of times.
func (a *Arena) resetOverlay() {
	a.eachResident(func(ln *cacheLine) { a.index[ln.off>>lineShift] = 0 })
	a.slab = a.slab[:0]
	a.freeHead = noSlot
	a.ringHead = noSlot
	a.nres = 0
}

// Name returns the arena's diagnostic name.
func (a *Arena) Name() string { return a.name }

// Sys returns the System the arena belongs to.
func (a *Arena) Sys() *System { return a.sys }

// Size returns the arena size in bytes.
func (a *Arena) Size() int64 { return a.med.size }

// HostBytes returns the host memory the arena's medium holds: the segments
// written so far. It charges nothing and reports no simulated quantity.
func (a *Arena) HostBytes() int64 { return a.med.held() }

// Kind reports the medium the arena models.
func (a *Arena) Kind() Kind { return a.kind }

// Stats returns a copy of the arena's event counters.
func (a *Arena) Stats() Stats { return a.stats }

func (a *Arena) check(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > a.med.size {
		panic(fmt.Sprintf("pmem: %s access [%d,%d) out of range [0,%d)",
			a.name, off, off+int64(n), a.med.size))
	}
}

func lineOf(off int64) int64 { return off &^ (CacheLineSize - 1) }

// fill brings a line into the cache (charging the read latency) and returns
// it; if already resident it is a hit.
//
// The returned pointer is valid until the next fill: even if evictOverflow
// replaces the just-filled line (possible only when every other line is a
// pinned dirty PM line), the freed slab slot's memory is untouched until the
// next allocSlot, and every caller consumes the line before issuing another
// arena operation.
func (a *Arena) fill(l int64) *cacheLine {
	if s := a.lookup(l); s != noSlot {
		a.stats.CacheHits++
		a.sys.clock.Advance(a.sys.lat.CacheHit)
		return &a.slab[s]
	}
	a.stats.LineFills++
	a.sys.clock.Advance(a.readNS)
	s := a.allocSlot()
	ln := &a.slab[s]
	ln.off = l
	ln.dirty = false
	a.med.read(l, ln.buf[:])
	a.index[l>>lineShift] = s + 1
	a.ringPushBack(s)
	a.nres++
	a.evictOverflow()
	return ln
}

// evictOverflow enforces the cache capacity with FIFO replacement.
func (a *Arena) evictOverflow() {
	attempts := a.nres
	for a.nres > a.maxLines && attempts > 0 {
		attempts--
		s := a.ringPopFront()
		ln := &a.slab[s]
		if ln.dirty {
			if a.kind == PM {
				// Pinned: protocols must flush explicitly. Requeue.
				a.ringPushBack(s)
				continue
			}
			// DRAM write-back on replacement.
			a.stats.LineWritebacks++
			a.sys.clock.Advance(a.writeNS)
			a.med.writeLine(ln.off, &ln.buf)
		}
		a.index[ln.off>>lineShift] = 0
		a.freeSlot(s)
		a.nres--
	}
}

// Load copies len(dst) bytes at off into dst, charging per cache line: the
// cache-hit cost for resident lines, the medium read latency otherwise.
func (a *Arena) Load(off int64, dst []byte) { a.load(off, len(dst), dst) }

// Touch charges exactly what Load(off, dst) with len(dst) == n would — the
// same fills, hits, evictions, BytesRead and clock advance — but copies
// nothing. A caller that holds the bytes already (a decoded header it knows
// PM still holds) uses it to pay for the read it skips.
func (a *Arena) Touch(off int64, n int) { a.load(off, n, nil) }

// load is Load's per-line loop; a nil dst makes it Touch.
func (a *Arena) load(off int64, n int, dst []byte) {
	a.check(off, n)
	if n == 0 {
		return
	}
	a.stats.BytesRead += int64(n)
	for first, last := lineOf(off), lineOf(off+int64(n)-1); first <= last; first += CacheLineSize {
		ln := a.fill(first)
		if dst == nil {
			continue
		}
		lo, hi := first, first+CacheLineSize
		if lo < off {
			lo = off
		}
		if end := off + int64(n); hi > end {
			hi = end
		}
		copy(dst[lo-off:hi-off], ln.buf[lo-first:hi-first])
	}
}

// Read is a convenience Load that allocates and returns the bytes.
func (a *Arena) Read(off int64, n int) []byte {
	dst := make([]byte, n)
	a.Load(off, dst)
	return dst
}

// Store writes src at off into the cache (write-allocate: an absent line is
// filled first, paying the read latency). Data becomes durable only when
// flushed (PM). Each 8-byte-aligned fragment is a separate crash point: an
// injected crash can tear a multi-word store at any word boundary, matching
// the paper's 8-byte failure-atomicity assumption.
func (a *Arena) Store(off int64, src []byte) {
	a.check(off, len(src))
	pos := off
	rem := src
	for len(rem) > 0 {
		// Fragment ends at the next 8-byte boundary.
		n := int(WordSize - pos%WordSize)
		if n > len(rem) {
			n = len(rem)
		}
		a.storeWord(pos, rem[:n])
		pos += int64(n)
		rem = rem[n:]
	}
}

// storeWord applies one ≤8-byte, non-boundary-crossing store atomically.
func (a *Arena) storeWord(off int64, src []byte) {
	a.sys.injector.tick()
	a.stats.WordStores++
	a.stats.BytesStored += int64(len(src))
	a.sys.clock.Advance(a.sys.lat.Store)
	l := lineOf(off)
	ln := a.fill(l)
	ln.dirty = true
	copy(ln.buf[off-l:], src)
}

// Flush issues CLFLUSH for every cache line overlapping [off, off+n),
// writing dirty lines back to the medium (they stay resident, clean). Each
// flush is a crash point. Flushing a clean or absent line is counted but
// costs no write-back. On DRAM arenas Flush is a no-op (no persistence
// domain).
func (a *Arena) Flush(off int64, n int) {
	a.check(off, n)
	if a.kind == DRAM || n == 0 {
		return
	}
	for first, last := lineOf(off), lineOf(off+int64(n)-1); first <= last; first += CacheLineSize {
		a.flushLine(first)
	}
}

// FlushLine issues CLFLUSH for the single line containing off.
func (a *Arena) FlushLine(off int64) {
	a.check(off, 1)
	if a.kind == DRAM {
		return
	}
	a.flushLine(lineOf(off))
}

func (a *Arena) flushLine(l int64) {
	a.sys.injector.tick()
	a.stats.FlushCalls++
	s := a.lookup(l)
	if s == noSlot || !a.slab[s].dirty {
		return
	}
	ln := &a.slab[s]
	a.sys.clock.Advance(a.writeNS)
	a.stats.LineWritebacks++
	a.med.writeLine(l, &ln.buf)
	ln.dirty = false
}

// Persist flushes [off, off+n) and issues a fence: the canonical
// "clflush; mfence" durability point.
func (a *Arena) Persist(off int64, n int) {
	a.Flush(off, n)
	a.sys.Fence()
}

// zeroChunk is the source of Zero's stores.
var zeroChunk [4096]byte

// Zero stores n zero bytes at off.
func (a *Arena) Zero(off int64, n int) {
	a.check(off, n)
	for n > 0 {
		// Chunks end on word boundaries, so the span splits into the same
		// word stores (crash points) as one Store of the whole.
		c := min(n, len(zeroChunk)-int(off%WordSize))
		a.Store(off, zeroChunk[:c])
		off += int64(c)
		n -= c
	}
}

// DirtyLines reports how many resident lines are dirty.
func (a *Arena) DirtyLines() int {
	n := 0
	a.eachResident(func(ln *cacheLine) {
		if ln.dirty {
			n++
		}
	})
	return n
}

// ResidentLines reports the total cache-resident lines.
func (a *Arena) ResidentLines() int { return a.nres }

// AtomicRegion runs fn with crash injection suspended. The HTM emulator uses
// it to publish a transaction's write set atomically: real RTM guarantees a
// line modified inside a transaction is never visible (or evictable) in a
// partially updated state.
func (a *Arena) AtomicRegion(fn func()) {
	a.sys.injector.suspended++
	defer func() { a.sys.injector.suspended-- }()
	fn()
}

// crash applies power-failure semantics: DRAM loses everything; each dirty
// PM line is either evicted (written back whole) or lost, per the lottery.
// Clean lines are dropped (they mirror the medium anyway).
func (a *Arena) crash(evict func() bool) {
	if a.kind == DRAM {
		a.med.drop()
		a.resetOverlay()
		return
	}
	// The lottery iterates dirty offsets in ascending order so a given seed
	// always evicts the same lines; collect them from the ring and sort.
	offs := a.crashBuf[:0]
	a.eachResident(func(ln *cacheLine) {
		if ln.dirty {
			offs = append(offs, ln.off)
		}
	})
	a.crashBuf = offs
	slices.Sort(offs)
	for _, l := range offs {
		if evict() {
			a.stats.LineWritebacks++
			a.med.writeLine(l, &a.slab[a.lookup(l)].buf)
		}
	}
	a.resetOverlay()
}

// MediumBytes returns the durable medium contents in [off, off+n) without
// charging time — a debugging/verification window onto what would survive a
// crash with no evictions.
func (a *Arena) MediumBytes(off int64, n int) []byte {
	a.check(off, n)
	out := make([]byte, n)
	a.med.read(off, out)
	return out
}

// MediumSnapshot copies the entire durable medium — a crash-consistent
// image of the arena (unflushed cache lines are, by definition, absent).
// Used to persist simulated PM across process runs.
func (a *Arena) MediumSnapshot() []byte {
	return a.med.snapshot()
}

// RestoreMedium replaces the durable medium with a snapshot and drops the
// cache overlay, as if the machine had just powered on with this PM image.
// The snapshot length must match the arena size.
func (a *Arena) RestoreMedium(img []byte) error {
	if int64(len(img)) != a.med.size {
		return fmt.Errorf("pmem: snapshot is %d bytes, arena is %d", len(img), a.med.size)
	}
	a.med.restore(img)
	a.resetOverlay()
	return nil
}

// --- Little-endian integer convenience accessors -------------------------

// LoadU16 loads a little-endian uint16 at off.
func (a *Arena) LoadU16(off int64) uint16 {
	var b [2]byte
	a.Load(off, b[:])
	return binary.LittleEndian.Uint16(b[:])
}

// LoadU32 loads a little-endian uint32 at off.
func (a *Arena) LoadU32(off int64) uint32 {
	var b [4]byte
	a.Load(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// LoadU64 loads a little-endian uint64 at off.
func (a *Arena) LoadU64(off int64) uint64 {
	var b [8]byte
	a.Load(off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// StoreU16 stores v little-endian at off.
func (a *Arena) StoreU16(off int64, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	a.Store(off, b[:])
}

// StoreU32 stores v little-endian at off.
func (a *Arena) StoreU32(off int64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	a.Store(off, b[:])
}

// StoreU64 stores v little-endian at off.
func (a *Arena) StoreU64(off int64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	a.Store(off, b[:])
}
