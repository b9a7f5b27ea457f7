package pmem

import (
	"testing"
)

// smallCacheSystem builds a machine whose per-arena cache overlay holds only
// a few lines, so eviction traffic is easy to provoke.
func smallCacheSystem(cacheBytes int64) *System {
	lat := DefaultLatencies(300, 300)
	lat.CacheBytes = cacheBytes
	return NewSystem(lat)
}

// TestWarmArenaZeroAllocs pins the overlay's invariant: once the slab has
// warmed up, the Load/Store/Flush hot path performs no Go
// allocation — even in steady state with misses, write-allocates, evictions
// and write-backs on every iteration.
func TestWarmArenaZeroAllocs(t *testing.T) {
	sys := smallCacheSystem(16 << 10) // 256-line overlay
	const size = 1 << 20              // 16384 lines: most touches miss
	pm := sys.NewArena("pm", size, PM)
	dram := sys.NewArena("dram", size, DRAM)

	buf := make([]byte, 256)
	var pos int64
	step := func() {
		off := (pos * 7 * CacheLineSize) % (size - int64(len(buf)))
		pos++
		dram.Load(off, buf)
		dram.Store(off, buf)
		pm.Load(off, buf)
		pm.Store(off, buf)
		pm.Flush(off, len(buf))
	}
	// Warm up: grow the slab to capacity.
	for i := 0; i < 4096; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("warm arena Load/Store/Flush allocated %.1f times per run, want 0", n)
	}
}

// checkLineTable verifies the direct line table against the slab and ring:
// its length is the arena's line count, every non-zero entry names a slot
// whose off maps back to that entry, the entries number exactly nres, and
// the ring reaches each of them once.
func checkLineTable(t *testing.T, a *Arena) {
	t.Helper()
	if want := int(a.Size() / CacheLineSize); len(a.index) != want {
		t.Fatalf("line table has %d entries, arena has %d lines", len(a.index), want)
	}
	entries := 0
	for line, e := range a.index {
		if e == 0 {
			continue
		}
		entries++
		if int(e) > len(a.slab) {
			t.Fatalf("table[%d] = slot %d, slab has %d slots", line, e-1, len(a.slab))
		}
		if got := a.slab[e-1].off >> lineShift; got != int64(line) {
			t.Fatalf("table[%d] names slot %d, which caches line %d", line, e-1, got)
		}
	}
	if entries != a.nres {
		t.Fatalf("line table has %d entries, resident count is %d", entries, a.nres)
	}
	ring := 0
	a.eachResident(func(ln *cacheLine) {
		ring++
		if s := a.lookup(ln.off); s == noSlot || &a.slab[s] != ln {
			t.Fatalf("lookup(%d) = %d, not the ring's slot", ln.off, s)
		}
	})
	if ring != a.nres {
		t.Fatalf("ring holds %d lines, resident count is %d", ring, a.nres)
	}
}

// TestOverlayMemoryBounded is the regression test for the FIFO eviction
// slice-churn pattern the slab overlay replaced: after a million line
// touches across a working set far larger than the cache, the slab never
// grows past maxLines+1 slots, and the line table keeps the one size it was
// given (the arena's line count) and stays consistent with the slab — also
// after a crash has reset the overlay by walking the ring.
func TestOverlayMemoryBounded(t *testing.T) {
	sys := smallCacheSystem(64 << 10) // 1024-line overlay
	const size = 8 << 20              // 131072 lines
	a := sys.NewArena("pm", size, PM)

	touches := 1_000_000
	if testing.Short() {
		touches = 100_000
	}
	var word [8]byte
	for i := 0; i < touches; i++ {
		off := (int64(i) * 13 * CacheLineSize) % size
		if i%4 == 0 {
			a.Store(off, word[:])
			a.FlushLine(off)
		} else {
			a.Load(off, word[:])
		}
	}

	if a.nres != a.maxLines {
		t.Errorf("resident lines %d, want the cache capacity %d", a.nres, a.maxLines)
	}
	if cap(a.slab) > a.maxLines+1 {
		t.Errorf("slab capacity %d exceeds maxLines+1 = %d after %d touches",
			cap(a.slab), a.maxLines+1, touches)
	}
	if got := a.ResidentLines(); got != a.nres {
		t.Errorf("ResidentLines() = %d, internal count %d", got, a.nres)
	}
	checkLineTable(t, a)

	a.Store(0, word[:]) // one dirty line for the lottery to write back
	sys.Crash(EvictAll)
	if a.nres != 0 {
		t.Errorf("resident lines after crash = %d, want 0", a.nres)
	}
	checkLineTable(t, a)
	a.Load(5*CacheLineSize, word[:])
	checkLineTable(t, a)
}

// TestOverlayEvictionKeepsLookupConsistent drives heavy eviction through an
// 8-line cache and verifies the line table still resolves every resident
// line and has forgotten every evicted one.
func TestOverlayEvictionKeepsLookupConsistent(t *testing.T) {
	sys := smallCacheSystem(1) // clamps to the 8-line minimum
	const size = 64 * CacheLineSize
	a := sys.NewArena("pm", size, PM)

	var word [8]byte
	for i := 0; i < 10_000; i++ {
		off := (int64(i) * 11 * CacheLineSize) % size
		a.Load(off, word[:])
		if i%1000 == 0 {
			checkLineTable(t, a)
		}
	}
	checkLineTable(t, a)
}

// workingSet is the kv-write shape: 26 MiB of PM behind the default 2 MiB
// cache, so a strided walk misses and evicts on nearly every line. The
// warm-up writes every line back once, so the medium holds every segment
// before the timer starts, as a long-running store's does: the timed loop
// measures the overlay, not the first write-back into each segment.
func workingSet(b *testing.B) *Arena {
	b.Helper()
	b.ReportAllocs()
	a := NewSystem(DefaultLatencies(300, 300)).NewArena("pm", 26<<20, PM)
	var word [8]byte
	for off := int64(0); off < a.Size(); off += CacheLineSize {
		a.Store(off, word[:]) // fill the cache and grow the slab to capacity
		a.FlushLine(off)
	}
	b.ResetTimer()
	return a
}

// BenchmarkArenaLoadHit is the cache-hit path: lookup, hit charge, copy.
func BenchmarkArenaLoadHit(b *testing.B) {
	a := workingSet(b)
	var word [8]byte
	resident := a.Size() - int64(a.maxLines)*CacheLineSize // the walk's tail is what stayed
	fills := a.stats.LineFills
	for i := 0; i < b.N; i++ {
		a.Load(resident+int64(i%a.maxLines)*CacheLineSize, word[:])
	}
	if a.stats.LineFills != fills {
		b.Fatalf("%d of %d loads missed", a.stats.LineFills-fills, b.N)
	}
}

// BenchmarkArenaStoreFlush is the commit path's unit of work: write-allocate
// a line that is not resident (evicting another), store a word, flush it.
func BenchmarkArenaStoreFlush(b *testing.B) {
	a := workingSet(b)
	var word [8]byte
	lines := a.Size() / CacheLineSize
	fills := a.stats.LineFills
	for i := 0; i < b.N; i++ {
		off := int64(i) * 4099 % lines * CacheLineSize
		a.Store(off, word[:])
		a.FlushLine(off)
	}
	// The warm-up walk's tail is still resident, so a few early stores hit.
	if got := a.stats.LineFills - fills; got < int64(b.N)*9/10 {
		b.Fatalf("only %d of %d stores write-allocated", got, b.N)
	}
}
