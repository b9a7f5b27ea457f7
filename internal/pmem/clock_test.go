package pmem

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// eagerClock is the reference the lazy Clock must be indistinguishable from:
// every Advance walks the stack and charges each distinct open phase.
type eagerClock struct {
	now    int64
	stack  []string
	phases map[string]int64
}

func (c *eagerClock) Advance(d int64) {
	c.now += d
	for i, p := range c.stack {
		dup := false
		for _, q := range c.stack[:i] {
			dup = dup || q == p
		}
		if !dup {
			c.phases[p] += d
		}
	}
}
func (c *eagerClock) Enter(p string) { c.stack = append(c.stack, p) }
func (c *eagerClock) Exit(p string) {
	if len(c.stack) == 0 || c.stack[len(c.stack)-1] != p {
		panic("eager: phase exit mismatch for " + p)
	}
	c.stack = c.stack[:len(c.stack)-1]
}
func (c *eagerClock) ResetPhases() { c.phases = map[string]int64{} }
func (c *eagerClock) ClearStack()  { c.stack = nil }

// TestClockMatchesEagerReference drives the lazy clock and the eager
// reference with the same seeded random call sequences — re-entrant and
// interleaved duplicate names, zero-length advances, InPhase bodies that
// panic, resets and stack clears mid-stack — and requires the same time and
// the same phase map (key set included). Odd seeds compare after every
// step; even seeds compare every 13th, so frames stay unsettled across many
// operations the way they do under a real workload.
func TestClockMatchesEagerReference(t *testing.T) {
	names := []string{"Search", "PageUpdate", "Commit", "Commit/LogFlush"}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy, ref := NewClock(), &eagerClock{phases: map[string]int64{}}
		every := 1 + 12*int(1-seed%2)
		var open []string // the stack both clocks should hold
		for step := 0; step < 600; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 35:
				d := int64(rng.Intn(4)) * int64(rng.Intn(300)) // zero a quarter of the time
				op = "Advance"
				lazy.Advance(d)
				ref.Advance(d)
			case r < 55 && len(open) < 8:
				p := names[rng.Intn(len(names))]
				op = "Enter " + p
				open = append(open, p)
				lazy.Enter(p)
				ref.Enter(p)
			case r < 75 && len(open) > 0:
				p := open[len(open)-1]
				op = "Exit " + p
				open = open[:len(open)-1]
				lazy.Exit(p)
				ref.Exit(p)
			case r < 85:
				// InPhase with a body that advances and then panics: the
				// deferred Exit settles during the unwind.
				p, d := names[rng.Intn(len(names))], int64(rng.Intn(200))
				op = "InPhase(panic) " + p
				func() {
					defer func() { _ = recover() }()
					lazy.InPhase(p, func() { lazy.Advance(d); panic("crash") })
				}()
				ref.Enter(p)
				ref.Advance(d)
				ref.Exit(p)
			case r < 90:
				op = "ResetPhases"
				lazy.ResetPhases()
				ref.ResetPhases()
			case r < 94:
				op = "ClearStack"
				open = open[:0]
				lazy.ClearStack()
				ref.ClearStack()
			default:
				p := names[rng.Intn(len(names))]
				op = "Phase " + p
				if got, want := lazy.Phase(p), ref.phases[p]; got != want {
					t.Fatalf("seed %d step %d: Phase(%s) = %d, reference %d", seed, step, p, got, want)
				}
			}
			if lazy.Now() != ref.now || lazy.Depth() != len(ref.stack) {
				t.Fatalf("seed %d step %d (%s): now %d depth %d, reference %d / %d",
					seed, step, op, lazy.Now(), lazy.Depth(), ref.now, len(ref.stack))
			}
			if step%every != 0 {
				continue
			}
			if got := lazy.Phases(); !reflect.DeepEqual(got, ref.phases) {
				t.Fatalf("seed %d step %d (%s): phases %v, reference %v", seed, step, op, got, ref.phases)
			}
		}
	}
}

// TestClockClearStackKeepsCapacity pins that an injected crash does not
// make the next operation reallocate the phase stack.
func TestClockClearStackKeepsCapacity(t *testing.T) {
	c := NewClock()
	c.Enter("a")
	c.Enter("b")
	c.ClearStack()
	if n := testing.AllocsPerRun(100, func() {
		c.Enter("a")
		c.Enter("b")
		c.Advance(1)
		c.ClearStack()
	}); n != 0 {
		t.Fatalf("Enter/ClearStack cycle allocated %.1f times per run, want 0", n)
	}
}

func advanceNested(c *Clock, depth, n int) {
	names := []string{"Search", "PageUpdate", "RecordWrite", "Commit", "LogFlush", "Checkpoint"}
	for _, p := range names[:depth] {
		c.Enter(p)
	}
	for i := 0; i < n; i++ {
		c.Advance(1)
	}
	c.ClearStack()
}

// BenchmarkClockAdvanceNested is Advance with three phases open: the
// kv-write commit path's usual depth.
func BenchmarkClockAdvanceNested(b *testing.B) {
	b.ReportAllocs()
	c := NewClock()
	advanceNested(c, 3, 1) // create the map keys and the stack outside the timer
	b.ResetTimer()
	advanceNested(c, 3, b.N)
}

// TestClockAdvanceIndependentOfDepth pins that Advance does no per-phase
// work: six open phases cost the same as one.
func TestClockAdvanceIndependentOfDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	const n, chunks = 2_000_000, 20
	clocks := map[int]*Clock{1: NewClock(), 6: NewClock()}
	best := map[int]time.Duration{1: 1<<63 - 1, 6: 1<<63 - 1}
	// Each trial times the two depths in alternating chunks, so load from
	// tests running alongside, which comes and goes faster than a trial,
	// falls on both alike; the minima are each depth's quietest trial.
	for try := 0; try < 8; try++ {
		spent := map[int]time.Duration{}
		for c := 0; c < chunks; c++ {
			for _, depth := range [][2]int{{1, 6}, {6, 1}}[c%2] {
				t0 := time.Now()
				advanceNested(clocks[depth], depth, n/chunks)
				spent[depth] += time.Since(t0)
			}
		}
		for depth, d := range spent {
			best[depth] = min(best[depth], d)
		}
	}
	d1, d6 := best[1], best[6]
	t.Logf("Advance x %d: depth 1 %v, depth 6 %v", n, d1, d6)
	if float64(d6) > 1.5*float64(d1) {
		t.Fatalf("Advance at depth 6 took %v, depth 1 %v: more than 1.5x", d6, d1)
	}
}
