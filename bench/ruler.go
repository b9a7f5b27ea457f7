package main

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The ruler is a fixed piece of work the benchmark owns and runs for about
// seventy microseconds in every millisecond of a measured phase, on the
// goroutines that generate the load. How long a tick takes says how fast
// this box was running at that moment, and every host-clock end-to-end
// metric is reported at the ruler's nominal speed: a slice's throughput is
// multiplied, its latency and CPU per op divided, by how much slower than
// nominal the ticks inside that slice ran (to the powers rulerFollow and
// rulerFollowLatency below).
//
// The box is a share of a bigger machine. Identical runs of the
// single-threaded kv-write differed by up to 26 % here on an ordinary
// afternoon (inter-quartile range 7.5 %), ran at little over half speed for
// half an hour once, and differed by 25-35 % (inter-quartile) on the driver.
// Seven candidate kernels were timed between the ops of twenty same-seed
// runs and compared, window by op-aligned window, with how much slower the
// ops themselves ran. What moves is not memory latency and not the clock
// rate: a pointer chase over 16 MiB and a dependent chain of integer mixes
// followed the ops with r = 0.35 and 0.45. It is how much work the core
// gets through — kernels with many independent operations in flight
// followed with r = 0.8-0.9 — as it would be if a neighbour ran on the
// core's other hardware thread. The tick is the one that followed best
// (r = 0.91): a small model of what the program's PM emulator does to the
// host's memory, a direct-mapped cache of 64-byte lines over a 64 MiB
// medium, 15 accesses in 16 to a 1 MiB hot region, a miss copying a line in
// and a dirty line out. Dividing by it took those runs' inter-quartile
// range from 7.5 % to 1.9 %, their whole range from 26 % to 12 %, and the
// two-second windows' 5th-95th percentile range from 38 % to 16 %; in the
// slow half hour the ops ran 1.44, 1.28 and 1.28 times slower than
// on the ordinary afternoon and the ticks 1.42, 1.25 and 1.26 times.
//
// The ruler lives in the benchmark's own files, so a change to the program
// cannot change its work. It can change what the tick finds in the CPU's
// cache; the host.*_raw layer metrics are the clock's own readings.
const (
	rulerMedium    = 64 << 20
	rulerSlots     = 1 << 15 // 2 MiB of lines
	rulerHot       = 1 << 20
	rulerAccesses  = 1500
	rulerNominalNS = 70_000  // a tick between ops on this box, undisturbed: the unit of host speed
	rulerColdNS    = 100_000 // the same for a tick after a sweep of the cache (coldTicks), which finds less
	rulerEvery     = time.Millisecond

	// rulerFollow is how closely the workloads follow the ticks run between
	// their ops. Over three sets of ten runs of each, made over three hours
	// in which the box's raw speed rose by a quarter to a third, a run whose
	// ticks were 1 % slower had 0.9 % lower throughput on kv-write (which the
	// ruler was chosen on), 0.8 % on sql-insert and server-write and 0.75 %
	// on server-mixed, whose round trips are mostly kernel code; CPU per op
	// likewise; and on every workload a median latency that rose by no more:
	// 0.8 %, 0.7 %, 0.85 %, 0.5 %. A slice's throughput and CPU per op are
	// corrected by its slowdown to the power 0.9, its latencies to 0.8: the
	// sets' medians then agreed within 8 % on every metric and workload,
	// against 12-38 % as the clock read them. Set-ups follow their ticks one
	// to one.
	rulerFollow        = 0.9
	rulerFollowLatency = 0.8
)

type ruler struct {
	mu     sync.Mutex
	t0     time.Time
	lastNS atomic.Int64 // when the last tick started, from t0
	medium []byte
	slots  []byte
	tags   []int32 // line cached in each slot, -1 = none
	dirty  []bool
	s, acc uint64
}

// theRuler is the process's one ruler, made on first use.
var theRuler = sync.OnceValue(func() *ruler {
	r := &ruler{t0: time.Now(), tags: make([]int32, rulerSlots), dirty: make([]bool, rulerSlots), s: 1}
	r.medium, r.slots = offHeap(rulerMedium), offHeap(rulerSlots*64)
	for i := 0; i < len(r.medium); i += 8 {
		binary.LittleEndian.PutUint64(r.medium[i:], mix64(uint64(i)))
	}
	for i := range r.tags {
		r.tags[i] = -1
	}
	return r
})

// offHeap returns n zeroed bytes from outside the Go heap, where 66 MiB
// more of live data would change when the program's garbage is collected;
// from the heap if the kernel will not map them.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	return b
}

// work is one tick. It must never change: it is the unit.
func (r *ruler) work() {
	s, acc := r.s, r.acc
	for i := 0; i < rulerAccesses; i++ {
		s += 0x9E3779B97F4A7C15
		z := mix64(s)
		line := int32((z >> 8) % (rulerHot / 64))
		if z&15 == 0 {
			line = int32((z >> 8) % (rulerMedium / 64))
		}
		h := int((uint64(line) * 0x9E3779B97F4A7C15) >> (64 - 15))
		slot := r.slots[h*64 : h*64+64]
		if r.tags[h] != line {
			if r.dirty[h] {
				copy(r.medium[int(r.tags[h])*64:], slot)
			}
			copy(slot, r.medium[int(line)*64:int(line)*64+64])
			r.tags[h], r.dirty[h] = line, false
		}
		o := (z >> 40) & 56
		if z&(1<<32) != 0 {
			binary.LittleEndian.PutUint64(slot[o:], acc)
			r.dirty[h] = true
		} else {
			acc ^= binary.LittleEndian.Uint64(slot[o:])
		}
	}
	r.s, r.acc = s, acc
}

// rulerRec is the ticks of one measured phase, by slice: how many, and how
// long they took together.
type rulerRec struct {
	n  [nSlices + 1]int64
	ns [nSlices + 1]int64
}

// tick runs the ruler once if a millisecond has passed since the last tick
// (by any goroutine) and nobody else is running it, books the tick under
// the slice it ended in, and returns how long it took: time the caller did
// not spend on the workload.
func (r *ruler) tick(w window, rec *rulerRec) time.Duration {
	now := int64(time.Since(r.t0))
	if now-r.lastNS.Load() < int64(rulerEvery) || !r.mu.TryLock() {
		return 0
	}
	r.lastNS.Store(now)
	t0 := time.Now()
	r.work()
	t1 := time.Now()
	d := t1.Sub(t0)
	s := w.slice(t1)
	rec.n[s]++
	rec.ns[s] += int64(d)
	r.mu.Unlock()
	return d
}

// slowdown is how many times slower than nominal the ticks of slice i ran
// (1 when the slice has no tick).
func (rec *rulerRec) slowdown(i int) float64 {
	if rec.n[i] == 0 {
		return 1
	}
	return float64(rec.ns[i]) / float64(rec.n[i]) / rulerNominalNS
}

// coldTicks runs n ticks where none can be interleaved a millisecond apart
// (a set-up) and returns how long they took together. A tick between ops
// finds the CPU's cache full of the workload's data; here a pass over 6 MiB
// of the medium before each tick leaves it the same.
func (r *ruler) coldTicks(n int) (ns int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	const sweep = 6 << 20
	for i := 0; i < n; i++ {
		off := i * sweep % (rulerMedium - sweep)
		for j := off; j < off+sweep; j += 64 {
			r.acc += uint64(r.medium[j])
		}
		t0 := time.Now()
		r.work()
		ns += int64(time.Since(t0))
	}
	return ns
}
