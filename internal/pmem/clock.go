package pmem

import (
	"fmt"
	"sort"
	"strings"
)

// Clock is a deterministic simulated clock with hierarchical phase
// accounting. Code brackets regions of interest with Enter/Exit; simulated
// time that passes while a phase is open is attributed to it, producing
// inclusive per-phase totals exactly like the stacked breakdowns in the
// paper's figures (e.g. Figure 6's Search / Page Update / Commit, and
// Figure 7's sub-phases of Page Update).
//
// Phase names are hierarchical by convention: "Commit" and "Commit/LogFlush"
// are independent accumulation buckets; nesting comes from the stack, so
// entering "LogFlush" while "Commit" is open attributes time to both.
//
// Attribution is lazy: Advance only moves the clock, and an open phase's
// elapsed time is added to its total when the phase exits or when totals are
// observed (settle). The totals any caller can see are those of charging
// every open phase on every Advance.
type Clock struct {
	now    int64
	advs   uint64 // Advance calls so far, zero-length ones included
	stack  []frame
	phases map[string]int64
}

// frame is one open phase. start and adv are the time and advance count at
// which the frame was entered or last settled.
type frame struct {
	name   string
	start  int64
	adv    uint64
	shadow bool // name is also open deeper in the stack, which carries the charge
}

// NewClock returns a clock at time zero with no phases.
func NewClock() *Clock {
	return &Clock{phases: make(map[string]int64)}
}

// Now returns the current simulated time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves simulated time forward by d nanoseconds; every distinct open
// phase is charged d (a phase open at several stack depths — e.g. a
// catalog-tree search nested inside a table-tree search — is charged once).
// Negative d panics: time never runs backwards.
func (c *Clock) Advance(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("pmem: clock advanced by negative duration %d", d))
	}
	c.now += d
	c.advs++
}

// settle charges the open frames from depth from upward with the time since
// they were entered or last settled, and restarts them at now. A frame that
// saw no Advance is not charged, so its name does not become a key of phases.
func (c *Clock) settle(from int) {
	for i := from; i < len(c.stack); i++ {
		f := &c.stack[i]
		if !f.shadow && f.adv != c.advs {
			c.phases[f.name] += c.now - f.start
		}
		f.start, f.adv = c.now, c.advs
	}
}

// Enter pushes a phase. Re-entering an open phase is allowed (nested trees
// share accounting buckets); the duplicate is attributed only once.
func (c *Clock) Enter(phase string) {
	shadow := false
	for i := range c.stack {
		if c.stack[i].name == phase {
			shadow = true
			break
		}
	}
	c.stack = append(c.stack, frame{name: phase, start: c.now, adv: c.advs, shadow: shadow})
}

// Exit pops a phase; the name must match the top of the stack.
func (c *Clock) Exit(phase string) {
	top := len(c.stack) - 1
	if top < 0 || c.stack[top].name != phase {
		panic("pmem: phase exit mismatch for " + phase)
	}
	c.settle(top)
	c.stack = c.stack[:top]
}

// InPhase runs fn bracketed by Enter/Exit, surviving panics (the crash
// injector unwinds through phases).
func (c *Clock) InPhase(phase string, fn func()) {
	c.Enter(phase)
	defer c.Exit(phase)
	fn()
}

// Phase returns the inclusive simulated time accumulated by the named phase.
func (c *Clock) Phase(name string) int64 {
	c.settle(0)
	return c.phases[name]
}

// Phases returns a copy of all phase totals.
func (c *Clock) Phases() map[string]int64 {
	c.settle(0)
	out := make(map[string]int64, len(c.phases))
	for k, v := range c.phases {
		out[k] = v
	}
	return out
}

// ResetPhases zeroes the per-phase accumulators but keeps the current time
// and stack, so a harness can time a warmup and then a measured region.
func (c *Clock) ResetPhases() {
	c.settle(0)
	c.phases = make(map[string]int64)
}

// ClearStack drops any open phases, charging them up to now. The crash
// simulator calls this after a simulated power failure unwinds the protocol
// code mid-phase.
func (c *Clock) ClearStack() {
	c.settle(0)
	c.stack = c.stack[:0]
}

// Depth reports how many phases are currently open.
func (c *Clock) Depth() int { return len(c.stack) }

// String renders the phase totals sorted by name, for debugging.
func (c *Clock) String() string {
	c.settle(0)
	names := make([]string, 0, len(c.phases))
	for k := range c.phases {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "t=%dns", c.now)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, c.phases[n])
	}
	return b.String()
}
