package pmem

import (
	"bytes"
	"testing"
)

// segments counts the medium segments an arena has allocated.
func segments(a *Arena) int {
	n := 0
	for _, seg := range a.med.segs {
		if seg != nil {
			n++
		}
	}
	return n
}

// TestMediumAllocatesOnWrite pins the medium's allocation rule: a segment
// exists only once a write has reached it — a CLFLUSH write-back, a DRAM
// eviction, the crash lottery, or a non-zero stretch of a restored image —
// and reads of everything else return zeros and charge what they always
// did.
func TestMediumAllocatesOnWrite(t *testing.T) {
	const size = 64 << 20
	lat := DefaultLatencies(300, 300)

	t.Run("fresh arena holds nothing", func(t *testing.T) {
		_, a := newPM(t, size)
		if n := segments(a); n != 0 || a.HostBytes() != 0 {
			t.Fatalf("fresh 64 MiB arena holds %d segments (%d bytes), want none", n, a.HostBytes())
		}
	})

	t.Run("unwritten reads are zeros at the usual charge", func(t *testing.T) {
		sys, a := newPM(t, size)
		// 190 bytes over the boundary of segments 0 and 1: four lines.
		off := int64(segSize - 70)
		dst := bytes.Repeat([]byte{0xAA}, 190)
		t0 := sys.Clock().Now()
		a.Load(off, dst)
		if d := sys.Clock().Now() - t0; d != 4*lat.PMRead {
			t.Errorf("cold load of 4 lines advanced the clock %d ns, want %d", d, 4*lat.PMRead)
		}
		if want := (Stats{LineFills: 4, BytesRead: 190}); a.Stats() != want {
			t.Errorf("cold load stats %+v, want %+v", a.Stats(), want)
		}
		if !bytes.Equal(dst, make([]byte, 190)) {
			t.Errorf("load of unwritten lines returned %x", dst)
		}

		t0, st := sys.Clock().Now(), a.Stats()
		peek := bytes.Repeat([]byte{0xAA}, 190)
		if c := a.Peek(off, peek); c != 4*lat.CacheHit {
			t.Errorf("peek of 4 resident lines costs %d, want %d", c, 4*lat.CacheHit)
		}
		far := bytes.Repeat([]byte{0xAA}, 64)
		if c := a.Peek(100*segSize, far); c != lat.PMRead {
			t.Errorf("peek of an absent line costs %d, want %d", c, lat.PMRead)
		}
		if !bytes.Equal(peek, make([]byte, 190)) || !bytes.Equal(far, make([]byte, 64)) {
			t.Errorf("peek of unwritten lines returned %x / %x", peek, far)
		}
		if sys.Clock().Now() != t0 || a.Stats() != st {
			t.Errorf("peek moved the machine: clock +%d, stats %+v", sys.Clock().Now()-t0, a.Stats().Delta(st))
		}

		a.Store(3*segSize, []byte{1}) // dirty in the cache, never written back
		if n := segments(a); n != 0 {
			t.Fatalf("loads, peeks and an unflushed store allocated %d segments", n)
		}
	})

	t.Run("first write-back allocates once", func(t *testing.T) {
		_, a := newPM(t, size)
		word := []byte{7}
		var fresh int64
		first := testing.AllocsPerRun(50, func() {
			off := fresh*segSize + 128
			fresh++
			a.Store(off, word)
			a.FlushLine(off)
		})
		if first != 1 {
			t.Errorf("a write-back into a fresh segment allocated %.2f times, want 1", first)
		}
		if int64(segments(a)) != fresh || a.HostBytes() != fresh*segSize {
			t.Fatalf("%d fresh write-backs left %d segments, %d bytes", fresh, segments(a), a.HostBytes())
		}
		var k int64
		later := testing.AllocsPerRun(200, func() {
			off := k%fresh*segSize + (k%97+3)*CacheLineSize
			k++
			a.Store(off, word)
			a.FlushLine(off)
		})
		if later != 0 {
			t.Errorf("a write-back into an allocated segment allocated %.2f times, want 0", later)
		}
		if int64(segments(a)) != fresh {
			t.Errorf("write-backs into allocated segments made %d segments, want %d", segments(a), fresh)
		}
	})

	t.Run("short last segment", func(t *testing.T) {
		_, a := newPM(t, segSize+4096)
		a.Store(segSize+4032, []byte{1})
		a.FlushLine(segSize + 4032)
		if segments(a) != 1 || a.HostBytes() != 4096 {
			t.Fatalf("last-line write-back holds %d segments, %d bytes; want 1, 4096", segments(a), a.HostBytes())
		}
	})

	t.Run("crash lottery writes back", func(t *testing.T) {
		sys, a := newPM(t, size)
		a.Store(5*segSize, []byte{1})
		sys.Crash(EvictNone)
		if n := segments(a); n != 0 {
			t.Fatalf("a lost dirty line allocated %d segments", n)
		}
		a.Store(5*segSize, []byte{2})
		sys.Crash(EvictAll)
		if segments(a) != 1 || a.MediumBytes(5*segSize, 1)[0] != 2 {
			t.Fatalf("an evicted dirty line: %d segments, medium byte %d", segments(a), a.MediumBytes(5*segSize, 1)[0])
		}
	})

	t.Run("DRAM eviction writes back and a crash frees all", func(t *testing.T) {
		small := lat
		small.CacheBytes = 8 * CacheLineSize
		sys := NewSystem(small)
		d := sys.NewArena("dram", size, DRAM)
		for i := int64(0); i < 4; i++ {
			d.Store(i*segSize, []byte{byte(i + 1)})
		}
		for i := int64(0); i < 16; i++ { // evict the four dirty lines
			d.Load(200*segSize+i*CacheLineSize, make([]byte, 1))
		}
		if n := segments(d); n != 4 {
			t.Fatalf("four DRAM eviction write-backs made %d segments, want 4", n)
		}
		if got := d.Read(3*segSize, 1)[0]; got != 4 {
			t.Fatalf("evicted DRAM line reads %d, want 4", got)
		}
		sys.Crash(EvictNone)
		if n := segments(d); n != 0 || d.HostBytes() != 0 {
			t.Fatalf("DRAM crash left %d segments (%d bytes)", n, d.HostBytes())
		}
		if got := d.Read(3*segSize, 1)[0]; got != 0 {
			t.Fatalf("DRAM line reads %d after a crash, want 0", got)
		}
	})

	t.Run("sparse restore and snapshot round trip", func(t *testing.T) {
		_, a := newPM(t, size)
		for _, off := range []int64{0, 7*segSize + 64, size - 1} {
			a.Store(off, []byte{0x5A})
			a.Persist(off, 1)
		}
		img := a.MediumSnapshot()
		if int64(len(img)) != size || img[7*segSize+64] != 0x5A || img[size-1] != 0x5A {
			t.Fatalf("snapshot of %d bytes lost a written byte", len(img))
		}

		_, b := newPM(t, size)
		b.Store(9*segSize, []byte{1}) // a segment the image does not hold
		b.Persist(9*segSize, 1)
		if err := b.RestoreMedium(img); err != nil {
			t.Fatal(err)
		}
		if n := segments(b); n != 3 {
			t.Fatalf("restoring an image with 3 non-zero segments allocated %d", n)
		}
		if b.med.segs[9] != nil {
			t.Fatal("restore kept a segment whose stretch of the image is zero")
		}
		if !bytes.Equal(b.MediumSnapshot(), img) {
			t.Fatal("snapshot of a restored arena differs from the image")
		}
		if err := b.RestoreMedium(make([]byte, size)); err != nil || segments(b) != 0 {
			t.Fatalf("restoring an all-zero image: %v, %d segments", err, segments(b))
		}
	})
}
