package pmem

import (
	"math/rand"
	"slices"
	"testing"
)

// residency lists the resident lines oldest first, with their dirty bits.
func residency(a *Arena) []int64 {
	var out []int64
	a.eachResident(func(ln *cacheLine) {
		off := ln.off
		if ln.dirty {
			off = -off - 1
		}
		out = append(out, off)
	})
	return out
}

// TestTouchChargesLikeLoad feeds one random stream of reads, stores and
// flushes to two arenas on small caches, the reads through Load on one and
// through Touch on the other. The machines must not tell them apart: the
// same Stats and clock after every op, the same FIFO ring at the end, and a
// follow-up stream of identical Loads that hits and fills alike on both.
func TestTouchChargesLikeLoad(t *testing.T) {
	const size = 64 * CacheLineSize
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sys [2]*System
		var a [2]*Arena
		for i := range a {
			lat := DefaultLatencies(300, 300)
			lat.CacheBytes = 12 * CacheLineSize
			sys[i] = NewSystem(lat)
			a[i] = sys[i].NewArena("pm", size, PM)
		}
		buf := make([]byte, 3*CacheLineSize)
		for op := 0; op < 2000; op++ {
			n := rng.Intn(len(buf) + 1)
			off := rng.Int63n(size - int64(n) + 1)
			switch rng.Intn(4) {
			case 0:
				rng.Read(buf[:n])
				a[0].Store(off, buf[:n])
				a[1].Store(off, buf[:n])
			case 1:
				a[0].Flush(off, n)
				a[1].Flush(off, n)
			default:
				a[0].Load(off, buf[:n])
				a[1].Touch(off, n)
			}
			if a[0].Stats() != a[1].Stats() || sys[0].Clock().Now() != sys[1].Clock().Now() {
				t.Fatalf("seed %d op %d: Load %+v at %d ns, Touch %+v at %d ns", seed, op,
					a[0].Stats(), sys[0].Clock().Now(), a[1].Stats(), sys[1].Clock().Now())
			}
		}
		if r0, r1 := residency(a[0]), residency(a[1]); !slices.Equal(r0, r1) {
			t.Fatalf("seed %d: residency after Load %v, after Touch %v", seed, r0, r1)
		}
		for op := 0; op < 200; op++ {
			n := 1 + rng.Intn(len(buf))
			off := rng.Int63n(size - int64(n) + 1)
			a[0].Load(off, buf[:n])
			a[1].Load(off, buf[:n])
		}
		if a[0].Stats() != a[1].Stats() || sys[0].Clock().Now() != sys[1].Clock().Now() {
			t.Fatalf("seed %d: follow-up stream diverged: %+v vs %+v", seed, a[0].Stats(), a[1].Stats())
		}
	}
}

// BenchmarkArenaTouch is the cached page open's charge: a header's prefix
// and then the prefix plus its offset array, on resident lines.
func BenchmarkArenaTouch(b *testing.B) {
	a := workingSet(b)
	resident := a.Size() - int64(a.maxLines)*CacheLineSize
	fills := a.stats.LineFills
	for i := 0; i < b.N; i++ {
		off := resident + int64(i%(a.maxLines/4))*4*CacheLineSize
		a.Touch(off, 14)
		a.Touch(off, 14+2*80)
	}
	if a.stats.LineFills != fills {
		b.Fatalf("%d touches missed", a.stats.LineFills-fills)
	}
}
