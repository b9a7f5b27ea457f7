package pmem

// Peek copies len(dst) bytes at off into dst without mutating any simulated
// state, and returns the simulated cost of the equivalent Load. It reads the
// cache-coherent view — resident overlay lines win over the medium — exactly
// like Load, but performs no fill, no eviction, no clock advance and no stat
// update, and it ticks no crash injector. That makes it safe to call
// concurrently with other Peeks (the optimistic read path calls it outside
// the writer's critical section) and guarantees reads add no crash points:
// the per-line cost is the cache-hit latency for resident lines and the
// medium read latency otherwise, identical to what Load would charge, but
// charged to the caller's accumulator rather than the machine clock.
func (a *Arena) Peek(off int64, dst []byte) int64 {
	a.check(off, len(dst))
	if len(dst) == 0 {
		return 0
	}
	var cost int64
	for first, last := lineOf(off), lineOf(off+int64(len(dst))-1); first <= last; first += CacheLineSize {
		lo, hi := first, first+CacheLineSize
		if lo < off {
			lo = off
		}
		if end := off + int64(len(dst)); hi > end {
			hi = end
		}
		if s := a.lookup(first); s != noSlot {
			cost += a.sys.lat.CacheHit
			copy(dst[lo-off:hi-off], a.slab[s].buf[lo-first:hi-first])
		} else {
			cost += a.readNS
			a.med.read(lo, dst[lo-off:hi-off])
		}
	}
	return cost
}
