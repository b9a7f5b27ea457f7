// Package faultx is a deterministic, seeded fault injector for the network
// service layer. It is crashx's sibling one layer up the stack: where crashx
// crashes the simulated persistent-memory machine at exact store points,
// faultx breaks the machinery *around* the store — connections die mid-frame,
// writes tear, reads stall, shard commits panic — and the schedule
// that produced any failure is a replayable Spec string.
//
// Injection sites:
//
//   - WrapConn wraps a net.Conn (plug it into server.Config.WrapConn). Writes
//     may be killed (connection closed before the frame lands), torn (a
//     partial prefix hits the wire, then the connection closes) or stalled;
//     reads may be stalled. Kill and torn both surface as a peer reset, which
//     is exactly what drives client reconnect + replay.
//   - CommitFault is called inside a shard's contained commit section
//     (shard.Config.FaultHook / fasp.Options.FaultHook). It may panic — the
//     containment machinery converts that into a Degraded shard and typed
//     ErrShardDown — or sleep while holding the shard, so its queue fills
//     and further submissions are refused at once with typed ErrShardBusy.
//
// Determinism: every injection site owns a private RNG seeded from
// Spec.Seed mixed with a stable site index (connection arrival order, shard
// id), so a replayed Spec reproduces the same per-site fault schedule. Unlike
// crashx the surrounding goroutine interleaving is the live scheduler's, so
// replay reproduces the fault pattern, not a bit-exact global order; in
// practice that is what makes a chaos failure debuggable.
package faultx

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spec is a complete, replayable description of one fault schedule. The
// string form (String / ParseSpec round-trip) is what a failing chaos run
// prints and what `crashtest -chaos-spec` replays:
//
//	fx:1:seed:kill:torn:stall:stallms:panic:restarts
//
// e.g. fx:1:42:0.002:0.002:0.01:5:0.02:2 — seed 42, 0.2% conn kills, 0.2%
// torn writes, 1% stalls of 5ms, 2% injected writer panics, 2 whole-server
// crash-restarts.
type Spec struct {
	// Seed is the master seed; every injection site derives its stream
	// from it.
	Seed int64
	// KillProb is the per-write probability the connection is closed
	// before any of the frame reaches the wire.
	KillProb float64
	// TornProb is the per-write probability a strict prefix of the buffer
	// is written and then the connection is closed (torn frame).
	TornProb float64
	// StallProb is the per-read and per-write probability of sleeping
	// Stall before the I/O proceeds (the I/O itself then succeeds).
	StallProb float64
	// Stall is the stall duration.
	Stall time.Duration
	// PanicProb is the per-commit probability CommitFault panics inside
	// the shard writer's contained section.
	PanicProb float64
	// Restarts is the number of whole-server crash-restarts the chaos
	// harness schedules across the soak (kill listener + conns, crash the
	// simulated machine, reopen, re-listen).
	Restarts int
}

// String renders the Spec in its replayable wire form.
func (sp Spec) String() string {
	return fmt.Sprintf("fx:1:%d:%s:%s:%s:%d:%s:%d",
		sp.Seed,
		formatProb(sp.KillProb), formatProb(sp.TornProb), formatProb(sp.StallProb),
		sp.Stall.Milliseconds(),
		formatProb(sp.PanicProb),
		sp.Restarts)
}

func formatProb(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// ParseSpec parses the String form back into a Spec. It is strict: the
// prefix, version, field count, and every field must parse, and
// probabilities must lie in [0,1].
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 9 || parts[0] != "fx" {
		return Spec{}, fmt.Errorf("faultx: malformed spec %q (want fx:1:seed:kill:torn:stall:stallms:panic:restarts)", s)
	}
	if parts[1] != "1" {
		return Spec{}, fmt.Errorf("faultx: unsupported spec version %q", parts[1])
	}
	var sp Spec
	var err error
	if sp.Seed, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
		return Spec{}, fmt.Errorf("faultx: bad seed %q: %w", parts[2], err)
	}
	probs := []struct {
		name string
		raw  string
		dst  *float64
	}{
		{"kill", parts[3], &sp.KillProb},
		{"torn", parts[4], &sp.TornProb},
		{"stall", parts[5], &sp.StallProb},
		{"panic", parts[7], &sp.PanicProb},
	}
	for _, p := range probs {
		v, err := strconv.ParseFloat(p.raw, 64)
		if err != nil || v < 0 || v > 1 {
			return Spec{}, fmt.Errorf("faultx: bad %s probability %q", p.name, p.raw)
		}
		*p.dst = v
	}
	ms, err := strconv.ParseInt(parts[6], 10, 64)
	if err != nil || ms < 0 {
		return Spec{}, fmt.Errorf("faultx: bad stall duration %q", parts[6])
	}
	sp.Stall = time.Duration(ms) * time.Millisecond
	restarts, err := strconv.Atoi(parts[8])
	if err != nil || restarts < 0 {
		return Spec{}, fmt.Errorf("faultx: bad restart count %q", parts[8])
	}
	sp.Restarts = restarts
	return sp, nil
}

// Counts reports how many faults the injector has actually fired, by kind.
type Counts struct {
	Kills  int64 `json:"kills"`  // connections killed before a write
	Torn   int64 `json:"torn"`   // torn (partial) writes
	Stalls int64 `json:"stalls"` // read/write stalls slept
	Panics int64 `json:"panics"` // injected shard-writer panics
}

// Injector injects the faults a Spec describes. One Injector serves a whole
// server: WrapConn hands each accepted connection its own derived RNG
// stream, CommitFault keeps one per shard. The zero probabilities make any
// site a no-op, so a zero Spec is a transparent pass-through.
type Injector struct {
	spec    Spec
	connSeq atomic.Int64
	enabled atomic.Bool

	mu     sync.Mutex
	shards map[int]*rand.Rand

	kills  atomic.Int64
	torn   atomic.Int64
	stalls atomic.Int64
	panics atomic.Int64
}

// New builds an Injector for spec, enabled.
func New(spec Spec) *Injector {
	in := &Injector{spec: spec, shards: make(map[int]*rand.Rand)}
	in.enabled.Store(true)
	return in
}

// Spec returns the schedule this injector runs.
func (in *Injector) Spec() Spec { return in.spec }

// String returns the replayable spec string.
func (in *Injector) String() string { return in.spec.String() }

// SetEnabled pauses (false) or resumes (true) all injection. The chaos
// harness disables injection for the final drain so the oracle verifies a
// quiesced store.
func (in *Injector) SetEnabled(v bool) { in.enabled.Store(v) }

// Counts snapshots the fired-fault counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Kills:  in.kills.Load(),
		Torn:   in.torn.Load(),
		Stalls: in.stalls.Load(),
		Panics: in.panics.Load(),
	}
}

// mix64 is splitmix64's finalizer — decorrelates seed^site so neighbouring
// site indices get unrelated streams.
func mix64(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// CommitFault is the engine-side injection point, called inside a shard's
// contained commit section before the batch applies. With probability
// PanicProb it panics (containment turns that into a Degraded shard +
// ErrShardDown); with probability StallProb it sleeps Stall while holding
// the shard, so its queue fills and further submissions are refused at
// once with ErrShardBusy.
func (in *Injector) CommitFault(shard int) {
	if !in.enabled.Load() || (in.spec.PanicProb == 0 && in.spec.StallProb == 0) {
		return
	}
	in.mu.Lock()
	rng := in.shards[shard]
	if rng == nil {
		rng = rand.New(rand.NewSource(mix64(in.spec.Seed ^ int64(shard)*0x5bd1e995)))
		in.shards[shard] = rng
	}
	p := rng.Float64()
	in.mu.Unlock()
	switch {
	case p < in.spec.PanicProb:
		in.panics.Add(1)
		panic(fmt.Sprintf("faultx: injected writer panic (shard %d, %s)", shard, in.spec))
	case p < in.spec.PanicProb+in.spec.StallProb && in.spec.Stall > 0:
		in.stalls.Add(1)
		time.Sleep(in.spec.Stall)
	}
}
