package pmem

import "slices"

// LineSet collects the cache lines a sequence of byte ranges overlaps, so
// that a protocol persisting those ranges issues one CLFLUSH per distinct
// line: ranges that share a line (two small records, a frame and its
// neighbour) would otherwise flush it once dirty and again clean. It only
// gathers offsets; Flush issues them through Arena.FlushLine, so the cost
// model and the crash-point rules are the arena's. The zero value is empty
// and ready; reusing a set keeps its capacity.
type LineSet struct{ lines []int64 }

// Add records every line overlapping [off, off+n).
func (s *LineSet) Add(off int64, n int) {
	if n <= 0 {
		return
	}
	for l, last := lineOf(off), lineOf(off+int64(n)-1); l <= last; l += CacheLineSize {
		s.lines = append(s.lines, l)
	}
}

// Flush issues CLFLUSH once for each distinct line, in address order, and
// empties the set. It reports whether it flushed anything, so the caller
// knows whether a fence has something to order.
func (s *LineSet) Flush(a *Arena) bool {
	slices.Sort(s.lines)
	s.lines = slices.Compact(s.lines)
	for _, l := range s.lines {
		a.FlushLine(l)
	}
	n := len(s.lines)
	s.lines = s.lines[:0]
	return n > 0
}
