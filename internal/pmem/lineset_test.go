package pmem

import "testing"

func TestLineSetFlushesEachLineOnce(t *testing.T) {
	_, a := newPM(t, 4096)
	var s LineSet
	// Three ranges over lines 4, 1 and 1–2: three distinct lines.
	for _, r := range []struct {
		off int64
		n   int
	}{{300, 20}, {70, 10}, {100, 60}} {
		a.Store(r.off, make([]byte, r.n))
		s.Add(r.off, r.n)
	}
	s.Add(500, 0) // empty: no line
	before := a.Stats()
	if !s.Flush(a) {
		t.Fatal("Flush of a non-empty set reported nothing flushed")
	}
	d := a.Stats().Delta(before)
	if d.FlushCalls != 3 || d.LineWritebacks != 3 {
		t.Fatalf("flushed %d lines with %d write-backs, want 3 and 3", d.FlushCalls, d.LineWritebacks)
	}
	if a.DirtyLines() != 0 {
		t.Fatalf("%d lines still dirty", a.DirtyLines())
	}
	if s.Flush(a) {
		t.Fatal("a flushed set is not empty")
	}
}
