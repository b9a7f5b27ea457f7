package htm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"fasp/internal/pmem"
)

func newEnv() (*pmem.System, *pmem.Arena, *Manager) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	a := sys.NewArena("pm", 4096, pmem.PM)
	return sys, a, NewManager(sys, DefaultConfig())
}

// oldLine returns an environment whose line 0 holds 0xAA, durable.
func oldLine() (*pmem.System, *pmem.Arena) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	a := sys.NewArena("pm", 4096, pmem.PM)
	a.Store(0, bytes.Repeat([]byte{0xAA}, 64))
	a.Persist(0, 64)
	return sys, a
}

// TestCommitPublishesWrites: a committed write of part of a line is in the
// cache and durable when AtomicLineWrite returns, the rest of the line is
// untouched, and the transaction is one begin, one commit, one flush.
func TestCommitPublishesWrites(t *testing.T) {
	sys, a := oldLine()
	m := NewManager(sys, DefaultConfig())
	before := a.Stats()
	if err := m.AtomicLineWrite(a, 4, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAA}, 64)
	copy(want[4:], []byte{1, 2, 3, 4})
	if got := a.Read(0, 64); !bytes.Equal(got, want) {
		t.Fatalf("cached line = %x, want %x", got, want)
	}
	if got := a.MediumBytes(0, 64); !bytes.Equal(got, want) {
		t.Fatalf("durable line = %x, want %x", got, want)
	}
	if s := m.Stats(); s != (Stats{Begins: 1, Commits: 1}) {
		t.Fatalf("stats = %+v", s)
	}
	if d := a.Stats().Delta(before); d.FlushCalls != 1 || d.LineWritebacks != 1 {
		t.Fatalf("flushes = %d, write-backs = %d, want 1 and 1", d.FlushCalls, d.LineWritebacks)
	}
}

// TestWritesInvisibleBeforeEnd: at XEND, where InjectAbort is consulted,
// the transaction's stores are still buffered: the line reads its old
// value, on the aborted tries and on the one that commits.
func TestWritesInvisibleBeforeEnd(t *testing.T) {
	sys, a := oldLine()
	cfg := DefaultConfig()
	tries := 0
	cfg.InjectAbort = func() bool {
		tries++
		if got := a.Read(0, 64); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 64)) {
			t.Errorf("try %d: uncommitted write visible before XEND: %x", tries, got)
		}
		return tries <= 2
	}
	m := NewManager(sys, cfg)
	if err := m.AtomicLineWrite(a, 0, bytes.Repeat([]byte{0xBB}, 64)); err != nil {
		t.Fatal(err)
	}
	if tries != 3 {
		t.Fatalf("InjectAbort consulted %d times, want 3", tries)
	}
	if got := a.Read(0, 64); !bytes.Equal(got, bytes.Repeat([]byte{0xBB}, 64)) {
		t.Fatalf("committed write missing: %x", got)
	}
}

// TestCapacityAbortOnSecondLine: data whose last byte falls on the next
// line is refused before the transaction begins: nothing is written to
// either line, no crash point is spent and no counter moves.
func TestCapacityAbortOnSecondLine(t *testing.T) {
	for _, c := range []struct {
		off int64
		n   int
	}{{63, 2}, {0, 65}, {32, 33}, {56, 9}} {
		sys, a := oldLine()
		m := NewManager(sys, DefaultConfig())
		points, before := sys.CrashPoints(), a.Stats()
		err := m.AtomicLineWrite(a, c.off, bytes.Repeat([]byte{0xBB}, c.n))
		if !errors.Is(err, ErrCapacity) {
			t.Fatalf("%d bytes at %d: err = %v, want ErrCapacity", c.n, c.off, err)
		}
		if got := a.Read(0, 64); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 64)) {
			t.Fatalf("%d bytes at %d: refused write reached line 0: %x", c.n, c.off, got)
		}
		if got := a.Read(64, 64); !bytes.Equal(got, make([]byte, 64)) {
			t.Fatalf("%d bytes at %d: refused write reached line 1: %x", c.n, c.off, got)
		}
		if s := m.Stats(); s != (Stats{}) {
			t.Fatalf("%d bytes at %d: stats = %+v", c.n, c.off, s)
		}
		if got := sys.CrashPoints() - points; got != 0 {
			t.Fatalf("%d bytes at %d: refused write spent %d crash points", c.n, c.off, got)
		}
		if d := a.Stats().Delta(before); d.WordStores != 0 || d.FlushCalls != 0 {
			t.Fatalf("%d bytes at %d: refused write stored %d words, flushed %d lines", c.n, c.off, d.WordStores, d.FlushCalls)
		}
	}
}

// TestSpuriousAbortRetries: every aborted try buffers its stores again, so
// it spends one crash point per fragment, and only the committing try
// publishes (one line's worth of word stores).
func TestSpuriousAbortRetries(t *testing.T) {
	run := func(aborts int) (points int64, words int64, s Stats) {
		sys, a := oldLine()
		cfg := DefaultConfig()
		n := 0
		cfg.InjectAbort = func() bool { n++; return n <= aborts }
		m := NewManager(sys, cfg)
		base, before := sys.CrashPoints(), a.Stats()
		if err := m.AtomicLineWrite(a, 8, bytes.Repeat([]byte{0xBB}, 24)); err != nil {
			t.Fatal(err)
		}
		if got := a.MediumBytes(8, 24); !bytes.Equal(got, bytes.Repeat([]byte{0xBB}, 24)) {
			t.Fatalf("%d aborts: line not durable: %x", aborts, got)
		}
		return sys.CrashPoints() - base, a.Stats().Delta(before).WordStores, m.Stats()
	}
	p0, w0, _ := run(0)
	p3, w3, s := run(3)
	if s.SpuriousAborts != 3 || s.Commits != 1 || s.Begins != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if got := p3 - p0; got != 3*3 { // three aborted tries of three fragments
		t.Fatalf("three aborted tries spent %d crash points, want 9", got)
	}
	if w3 != w0 {
		t.Fatalf("word stores = %d with aborts, %d without: an aborted try published", w3, w0)
	}
}

// TestRetriesExhausted: MaxRetries retries after the first try, then
// ErrRetriesExhausted with the line untouched in the cache as well as in
// PM, and no flush.
func TestRetriesExhausted(t *testing.T) {
	sys, a := oldLine()
	cfg := DefaultConfig()
	cfg.MaxRetries = 2
	cfg.InjectAbort = func() bool { return true }
	m := NewManager(sys, cfg)
	before := a.Stats()
	err := m.AtomicLineWrite(a, 0, []byte{1})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v", err)
	}
	if s := m.Stats(); s != (Stats{Begins: 3, SpuriousAborts: 3}) {
		t.Fatalf("stats = %+v", s)
	}
	if got := a.Read(0, 64); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Fatalf("failed write visible in the cache: %x", got)
	}
	if d := a.Stats().Delta(before); d.WordStores != 0 || d.FlushCalls != 0 {
		t.Fatalf("failed write stored %d words, flushed %d lines", d.WordStores, d.FlushCalls)
	}
}

// TestCrashInsideTxnDiscardsEverything: a crash at any store inside the
// transaction, on the first try or on a retry, leaves the line entirely
// old, whatever the cache held at the crash.
func TestCrashInsideTxnDiscardsEverything(t *testing.T) {
	const frags = 8 // a full line
	for _, aborts := range []int{0, 1} {
		for k := int64(0); k < frags*int64(aborts+1); k++ {
			for _, opts := range []pmem.CrashOptions{pmem.EvictNone, pmem.EvictAll} {
				sys, a := oldLine()
				cfg := DefaultConfig()
				n := 0
				cfg.InjectAbort = func() bool { n++; return n <= aborts }
				m := NewManager(sys, cfg)
				sys.CrashAfter(k)
				crashed := sys.RunToCrash(func() { _ = m.AtomicLineWrite(a, 0, bytes.Repeat([]byte{0xBB}, 64)) })
				if !crashed {
					t.Fatalf("%d aborts, point %d: crash did not fire inside the transaction", aborts, k)
				}
				if s := m.Stats(); s.Commits != 0 {
					t.Fatalf("%d aborts, point %d: committed before the crash: %+v", aborts, k, s)
				}
				sys.Crash(opts)
				if got := a.MediumBytes(0, 64); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 64)) {
					t.Fatalf("%d aborts, point %d, %+v: transactional writes survived a mid-txn crash: %x", aborts, k, opts, got)
				}
			}
		}
	}
}

// Property: a sequence of arbitrary in-line atomic writes leaves the line,
// cached and durable, equal to applying them to a flat reference buffer.
func TestTxnMatchesReferenceModel(t *testing.T) {
	f := func(offs, lens []uint8, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		_, a, m := newEnv()
		ref := make([]byte, 64)
		for i, o := range offs {
			off := int(o) % 64
			n := 1
			if i < len(lens) {
				n = 1 + int(lens[i])%(64-off)
			}
			b := make([]byte, n)
			for j := range b {
				b[j] = data[(i+j)%len(data)]
			}
			if err := m.AtomicLineWrite(a, int64(off), b); err != nil {
				t.Logf("%d bytes at %d: %v", n, off, err)
				return false
			}
			copy(ref[off:], b)
		}
		return bytes.Equal(a.Read(0, 64), ref) && bytes.Equal(a.MediumBytes(0, 64), ref) &&
			m.Stats().Commits == int64(len(offs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicLineWriteRejectsSpanningData(t *testing.T) {
	_, a, m := newEnv()
	err := m.AtomicLineWrite(a, 60, make([]byte, 8)) // crosses the 64B boundary
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
	if err := m.AtomicLineWrite(a, 64, make([]byte, 64)); err != nil {
		t.Fatalf("aligned full-line write failed: %v", err)
	}
}

// TestAtomicLineWriteCrashPointPerFragment: the transaction's stores are
// one crash point per 8-byte fragment they write, on top of the fixed
// points of the flush and fence after XEND; the publication's word stores
// are counted too, one per fragment, though they cannot fire (AtomicRegion).
// The count is part of the crash-point numbering the goldens pin.
func TestAtomicLineWriteCrashPointPerFragment(t *testing.T) {
	points := func(off int64, n int) int64 {
		sys, a, m := newEnv()
		base := sys.CrashPoints()
		if err := m.AtomicLineWrite(a, off, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		return sys.CrashPoints() - base
	}
	for _, c := range []struct {
		off   int64
		n     int
		extra int64 // fragments beyond the one of an aligned 8-byte write
	}{
		{0, 64, 7},
		{8, 16, 1},
		{7, 2, 1},
		{4, 12, 1},
		{3, 4, 0},
	} {
		if got := points(c.off, c.n) - points(0, 8); got != 2*c.extra {
			t.Errorf("%d bytes at %d: %d crash points more than 8 aligned bytes, want %d", c.n, c.off, got, 2*c.extra)
		}
	}
}

// Property: AtomicLineWrite is failure-atomic — crash at every possible
// crash point leaves the line either entirely old or entirely new, under
// both eviction extremes.
func TestAtomicLineWriteFailureAtomicity(t *testing.T) {
	oldPat := bytes.Repeat([]byte{0xAA}, 64)
	newPat := bytes.Repeat([]byte{0xBB}, 64)

	// Count crash points in one uncrashed run.
	countPoints := func() int64 {
		sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
		a := sys.NewArena("pm", 4096, pmem.PM)
		m := NewManager(sys, DefaultConfig())
		a.Store(0, oldPat)
		a.Persist(0, 64)
		base := sys.CrashPoints()
		if err := m.AtomicLineWrite(a, 0, newPat); err != nil {
			t.Fatal(err)
		}
		return sys.CrashPoints() - base
	}
	total := countPoints()
	if total == 0 {
		t.Fatal("no crash points recorded")
	}
	for _, opts := range []pmem.CrashOptions{pmem.EvictNone, pmem.EvictAll, {Seed: 42, EvictProb: 0.5}} {
		for k := int64(0); k < total; k++ {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			a := sys.NewArena("pm", 4096, pmem.PM)
			m := NewManager(sys, DefaultConfig())
			a.Store(0, oldPat)
			a.Persist(0, 64)
			sys.CrashAfter(k)
			crashed := sys.RunToCrash(func() { _ = m.AtomicLineWrite(a, 0, newPat) })
			sys.Crash(opts)
			img := a.MediumBytes(0, 64)
			if !bytes.Equal(img, oldPat) && !bytes.Equal(img, newPat) {
				t.Fatalf("crash at point %d (opts %+v, crashed=%v): torn line %x", k, opts, crashed, img)
			}
		}
	}
}

func TestAtomicLineWriteRetriesSpuriousAborts(t *testing.T) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	a := sys.NewArena("pm", 4096, pmem.PM)
	n := 0
	cfg := DefaultConfig()
	cfg.InjectAbort = func() bool { n++; return n <= 2 }
	m := NewManager(sys, cfg)
	if err := m.AtomicLineWrite(a, 64, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	if got := a.MediumBytes(64, 64); !bytes.Equal(got, bytes.Repeat([]byte{7}, 64)) {
		t.Fatal("line not durable after retried atomic write")
	}
	if s := m.Stats(); s.SpuriousAborts != 2 || s.Commits != 1 || s.Begins != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAtomicLineWriteExhaustionLeavesOldValue(t *testing.T) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	a := sys.NewArena("pm", 4096, pmem.PM)
	a.Store(0, bytes.Repeat([]byte{0xAA}, 64))
	a.Persist(0, 64)
	cfg := DefaultConfig()
	cfg.MaxRetries = 2
	cfg.InjectAbort = func() bool { return true }
	m := NewManager(sys, cfg)
	err := m.AtomicLineWrite(a, 0, bytes.Repeat([]byte{0xBB}, 64))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v", err)
	}
	if got := a.MediumBytes(0, 64); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Fatal("failed atomic write disturbed the old value")
	}
}
