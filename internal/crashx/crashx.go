// Package crashx is a deterministic crash-schedule explorer for the commit
// schemes under test. Where cmd/crashtest's classic mode samples one random
// crash point per round, crashx *enumerates* schedules: it measures a
// recorded workload's crash-point count, then replays the workload crashing
// at every point up to a budget (stratified-sampling the rest), sweeps a
// small set of eviction lotteries per point, and checks an exact-state
// durability oracle after recovery. It can additionally inject a second
// crash at every crash point *inside recovery itself* and recover again,
// proving recovery idempotent — the paper asserts it (§4.4), this tests it.
//
// Every run is a pure function of its Spec (crash point, eviction lottery,
// optional nested recovery crash point and lottery): the workload is fixed,
// the simulated machine is deterministic, and the eviction lottery iterates
// dirty lines in sorted offset order under a seeded generator. A failing
// schedule therefore reproduces byte-for-byte from its Spec string, which
// cmd/crashtest accepts via -repro.
package crashx

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fasp/internal/pager"
	"fasp/internal/pmem"
)

// OpKind selects the mutation one workload transaction performs.
type OpKind uint8

const (
	// OpInsert adds a new key (the workload guarantees it is absent).
	OpInsert OpKind = iota
	// OpUpdate replaces an existing key's value.
	OpUpdate
	// OpDelete removes an existing key.
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	}
	return "unknown"
}

// Op is one workload operation. Unless Config.Units groups them, each op
// runs in its own B-tree transaction so the acknowledgement boundary — the
// durability oracle's ground truth — is exact: ops [0, acked) returned to
// the caller, op `acked` (if any) was in flight when the crash fired.
type Op struct {
	Kind OpKind
	Key  []byte
	Val  []byte
}

// DefaultWorkload builds a deterministic n-transaction workload of inserts
// with periodic updates and deletes of still-live keys, so crash points land
// inside record writes, slot-header commits, page splits, and free-page
// pushes alike. Every op is valid against the state left by its
// predecessors (Measure verifies this).
func DefaultWorkload(n int) []Op {
	ops := make([]Op, 0, n)
	var live []int
	id := 0
	for len(ops) < n {
		switch {
		case len(live) > 4 && len(ops)%7 == 5:
			k := live[len(ops)%len(live)]
			ops = append(ops, Op{Kind: OpUpdate, Key: wkey(k), Val: wval(k + 1000)})
		case len(live) > 6 && len(ops)%11 == 8:
			i := len(ops) % len(live)
			k := live[i]
			live = append(live[:i], live[i+1:]...)
			ops = append(ops, Op{Kind: OpDelete, Key: wkey(k)})
		default:
			ops = append(ops, Op{Kind: OpInsert, Key: wkey(id), Val: wval(id)})
			live = append(live, id)
			id++
		}
	}
	return ops
}

// FragScripted is the number of scripted transactions FragWorkload begins
// with; the last of them is the exact-fit update.
const FragScripted = 13

// FragWorkload builds a deterministic workload of n transactions (at least
// its FragScripted scripted ones) that
// fragments a 512-byte leaf on purpose, so that crash points land around
// the free-list maintenance the other workloads' equal-sized values never
// reach: its first thirteen transactions make two address-adjacent free
// blocks and then need both (a coalescing merge), free a cell and then the
// one below it at the content pointer, which returns to the gap at commit
// and leaves the first one's block at the content pointer, then need that
// block together with the gap (a gap absorb), and resize records so that
// deferred frees are written back after commit; the rest is a fixed churn of
// inserts, resizing updates and deletes with value lengths 8..120. Cells are
// 11 bytes longer than their values.
func FragWorkload(n int) []Op {
	ops := make([]Op, 0, n)
	var live []int // ascending: keys are inserted in order and removed in place
	ins := func(k, vlen int) {
		ops, live = append(ops, Op{Kind: OpInsert, Key: wkey(k), Val: fval(k, vlen)}), append(live, k)
	}
	upd := func(k, vlen int) { ops = append(ops, Op{Kind: OpUpdate, Key: wkey(k), Val: fval(k+len(ops), vlen)}) }
	del := func(k int) {
		ops = append(ops, Op{Kind: OpDelete, Key: wkey(k)})
		i := sort.SearchInts(live, k)
		live = append(live[:i], live[i+1:]...)
	}
	for k := 0; k < 6; k++ {
		ins(k, 60) // six 71-byte cells: content starts at 86
	}
	del(2)
	del(3)      // blocks at 299 and 228, adjacent
	ins(6, 100) // 111 bytes: neither block alone, nor the gap; the merged head's front
	del(4)      // a block at 157
	del(5)      // the lowest cell, at the content pointer: back to the gap at commit
	ins(7, 180) // 191 bytes: the block at 157, now at the content pointer, and the gap together
	upd(0, 20)  // exact fit into the 31 bytes the merge left over
	for i, next := 0, 8; len(ops) < n; i++ {
		h := int(uint64(mix(int64(i), int64(n))) % 1000)
		switch {
		case len(live) > 3 && h%10 < 3:
			del(live[h%len(live)])
		case len(live) > 0 && h%10 < 6:
			upd(live[h%len(live)], 8+h%113)
		default:
			ins(next, 8+h%113)
			next++
		}
	}
	return ops
}

// AppendWorkload builds n inserts of ascending keys with one-byte values:
// an auto-increment table. Its cells are 12 bytes, so on pages of 384 bytes
// or more a FAST+ leaf reaches the 25-cell cap before it runs out of bytes
// and every leaf split is an append split, while a 384-byte interior page
// holds 24 separators and splits at the median on the append after that.
func AppendWorkload(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Key: wkey(i), Val: fval(i, 1)}
	}
	return ops
}

// UnitWorkload builds a workload of unit-marked FAST+ transactions for
// 512-byte pages, with the Units that group it (Config.Units). Three plain
// transactions lay out leaves of 51-byte cells: ascending keys 0, 10, …,
// 230 split into leaves of four, then leaves [160, 190] and [200, 230] are
// filled to eight cells, and the latter has two cells that are not address
// neighbours deleted. Then two rounds shaped like a shard writer's group
// commit, one unit per request:
//
//   - round 1: two single-leaf units on leaf [0, 30] and one on [40, 70]
//     (committed in place), a unit writing two leaves, a unit that splits
//     the full leaf, and a unit that must defragment the fragmented one
//     (all three logged);
//   - round 2: a single-leaf unit (in place), a unit that empties leaf
//     [40, 70] so that it is freed and its separator dropped, and a unit
//     writing a key of that leaf's old range, which now lands in the leaf
//     beside it — logged too, since the parent that routes it there commits
//     only with the log.
func UnitWorkload() ([]Op, [][]int) {
	ins := func(k, vlen int) Op { return Op{Kind: OpInsert, Key: wkey(k), Val: fval(k, vlen)} }
	var ops []Op
	for k := 0; k < 240; k += 10 {
		ops = append(ops, ins(k, 40))
	}
	for _, k := range []int{201, 202, 203, 204, 161, 162, 163, 164} {
		ops = append(ops, ins(k, 40))
	}
	ops = append(ops, Op{Kind: OpDelete, Key: wkey(201)}, Op{Kind: OpDelete, Key: wkey(203)})
	units := [][]int{{24}, {8}, {2}}

	ops = append(ops, ins(5, 40), ins(15, 40), ins(45, 40), ins(85, 40), ins(125, 40), ins(165, 70), ins(205, 75))
	units = append(units, []int{1, 1, 1, 2, 1, 1})

	ops = append(ops, ins(25, 40))
	for _, k := range []int{40, 45, 50, 60, 70} {
		ops = append(ops, Op{Kind: OpDelete, Key: wkey(k)})
	}
	ops = append(ops, ins(55, 40))
	units = append(units, []int{1, 5, 1})
	return ops, units
}

func fval(i, n int) []byte { return []byte(strings.Repeat(string(rune('a'+i%26)), n)) }

func wkey(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
func wval(i int) []byte { return fval(i, 40) }

// Spec pins one crash schedule completely: where the primary crash fires,
// which eviction lottery runs, and — when RecPoint >= 0 — where a second
// crash fires inside recovery and which lottery follows it. Point counts
// crash points from the start of the workload run; RecPoint counts from the
// start of recovery.
type Spec struct {
	Point    int64
	Evict    pmem.CrashOptions
	RecPoint int64 // -1: no nested crash
	RecEvict pmem.CrashOptions
}

// String renders the spec in the form cmd/crashtest -repro accepts:
// "point:prob:seed" or "point:prob:seed/recpoint:recprob:recseed".
func (s Spec) String() string {
	out := fmt.Sprintf("%d:%s:%d", s.Point, formatProb(s.Evict.EvictProb), s.Evict.Seed)
	if s.RecPoint >= 0 {
		out += fmt.Sprintf("/%d:%s:%d", s.RecPoint, formatProb(s.RecEvict.EvictProb), s.RecEvict.Seed)
	}
	return out
}

func formatProb(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// ParseSpec parses the String form back into a Spec, validating the
// eviction probabilities.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{RecPoint: -1}
	prim, nested, hasNested := strings.Cut(strings.TrimSpace(s), "/")
	var err error
	if spec.Point, spec.Evict, err = parseStage(prim); err != nil {
		return Spec{}, fmt.Errorf("crashx: bad spec %q: %w", s, err)
	}
	if hasNested {
		if spec.RecPoint, spec.RecEvict, err = parseStage(nested); err != nil {
			return Spec{}, fmt.Errorf("crashx: bad spec %q: %w", s, err)
		}
	}
	return spec, nil
}

func parseStage(s string) (int64, pmem.CrashOptions, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, pmem.CrashOptions{}, fmt.Errorf("want point:prob:seed, got %q", s)
	}
	point, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil || point < 0 {
		return 0, pmem.CrashOptions{}, fmt.Errorf("bad crash point %q", parts[0])
	}
	prob, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return 0, pmem.CrashOptions{}, fmt.Errorf("bad eviction probability %q", parts[1])
	}
	seed, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return 0, pmem.CrashOptions{}, fmt.Errorf("bad eviction seed %q", parts[2])
	}
	opts := pmem.CrashOptions{Seed: seed, EvictProb: prob}
	if err := opts.Validate(); err != nil {
		return 0, pmem.CrashOptions{}, err
	}
	return point, opts, nil
}

// Config drives an exploration. Open and Reattach keep the explorer
// scheme-agnostic, exactly like internal/shard's Config: the caller supplies
// closures that build a fresh store on a new simulated machine and that
// rebuild + recover a store over its surviving arena.
type Config struct {
	// Open creates a fresh store on a fresh simulated machine.
	Open func() (*pmem.System, pager.Store)
	// Reattach rebuilds the store over its surviving arena after a crash
	// and runs the scheme's recovery. It is called a second time when a
	// nested crash interrupts the first recovery.
	Reattach func(st pager.Store) (pager.Store, error)
	// Workload is the recorded transaction sequence (one txn per op).
	Workload []Op
	// Units, when non-nil, groups the workload into unit-marked
	// transactions instead — the shape of a shard writer's group commit.
	// Entry t is transaction t, listing the op counts of its units in order;
	// the entries cover the workload, and every count is positive. Each
	// unit end but the last is marked (btree.Tx.MarkUnit), and the oracle
	// accepts for the transaction in flight at the crash any subset of its
	// units, each whole. Acknowledgement counts ops, a transaction's at once.
	Units [][]int
	// AtOp, when set, runs before workload op i in every replay (Measure
	// and Run alike), where op i begins a transaction. It executes inside
	// the crashed region, so any PM traffic it makes contributes crash
	// points like any transaction, and it must be deterministic.
	// TestUnitRoundCrashSweep uses it on a measuring run to record the crash
	// point and store stats at every transaction start. A non-nil returned
	// store replaces the one the replay applies the remaining ops to;
	// returning nil keeps the current store.
	AtOp func(i int, st pager.Store) (pager.Store, error)

	// Points, when non-nil, overrides the schedule entirely: exactly these
	// primary crash points are explored and Budget/Samples are ignored.
	// Targeted sweeps use it to enumerate a window learned from a measured
	// run (the rounds under test) exhaustively and skip the rest.
	Points []int64
	// Budget is the number of crash points enumerated exhaustively from
	// point 0; 0 enumerates every point. Beyond the budget, Samples points
	// are stratified-sampled (seeded) from the remaining range.
	Budget int
	// Samples is the stratified sample count past the budget (default 64;
	// ignored when the budget covers the whole range).
	Samples int
	// Lotteries is the number of seeded probabilistic (p=0.5) eviction
	// lotteries swept per crash point, in addition to EvictNone and
	// EvictAll (default 2).
	Lotteries int
	// Seed derives every sampled point and lottery seed (default 1).
	Seed int64

	// Nested injects a second crash at recovery crash points: for each
	// primary schedule that crashed, recovery's crash points are counted
	// and re-explored under NestedBudget/NestedSamples (same semantics as
	// Budget/Samples; NestedBudget 0 enumerates all of them).
	Nested        bool
	NestedBudget  int
	NestedSamples int

	// MaxFailures stops the exploration after this many oracle violations
	// (default 1 — fail fast; raise it to keep going).
	MaxFailures int

	// Check, when set, runs as an extra oracle clause over the recovered
	// state (tests use it to deliberately weaken or strengthen the
	// invariants). got maps key → value of the fully recovered store.
	Check func(got map[string]string, acked int) error

	// Progress, when set, is called after each explored primary point.
	Progress func(pointsDone, pointsTotal, runs int)

	// OnFailure, when set, is called the moment each oracle violation is
	// recorded — harnesses print the reproduction command immediately
	// instead of waiting for the final report.
	OnFailure func(Failure)
}

func (c *Config) fill() error {
	if c.Open == nil || c.Reattach == nil {
		return fmt.Errorf("crashx: Config.Open and Config.Reattach are required")
	}
	if len(c.Workload) == 0 {
		return fmt.Errorf("crashx: Config.Workload is empty")
	}
	if c.Units != nil {
		n := 0
		for _, units := range c.Units {
			for _, u := range units {
				if u <= 0 {
					return fmt.Errorf("crashx: Config.Units holds a unit of %d ops", u)
				}
				n += u
			}
		}
		if n != len(c.Workload) {
			return fmt.Errorf("crashx: Config.Units covers %d ops of a %d-op workload", n, len(c.Workload))
		}
	}
	if c.Samples <= 0 {
		c.Samples = 64
	}
	if c.Lotteries < 0 {
		c.Lotteries = 0
	} else if c.Lotteries == 0 {
		c.Lotteries = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NestedSamples <= 0 {
		c.NestedSamples = 16
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 1
	}
	return nil
}

// oneUnit is the unit list of a one-op transaction.
var oneUnit = []int{1}

// txnUnits returns the unit list of workload transaction t.
func (c *Config) txnUnits(t int) []int {
	if c.Units == nil {
		return oneUnit
	}
	return c.Units[t]
}

// lotteries returns the eviction sweep for one crash point: EvictNone,
// EvictAll, then c.Lotteries seeded p=0.5 draws decorrelated per point.
func (c *Config) lotteries(point int64) []pmem.CrashOptions {
	out := make([]pmem.CrashOptions, 0, 2+c.Lotteries)
	out = append(out, pmem.EvictNone, pmem.EvictAll)
	for i := 0; i < c.Lotteries; i++ {
		out = append(out, pmem.CrashOptions{
			Seed:      mix(c.Seed, point, int64(i)),
			EvictProb: 0.5,
		})
	}
	return out
}

// mix is a splitmix64-style hash combining the master seed with schedule
// coordinates, so derived seeds are deterministic yet decorrelated.
func mix(vs ...int64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h ^= uint64(v) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	// Keep it positive so specs stay readable.
	return int64(h &^ (1 << 63))
}

// schedule returns the crash points to explore in [0, total): the first
// min(budget, total) points enumerated, then `samples` stratified seeded
// picks from the remainder. budget <= 0 enumerates everything.
func schedule(total int64, budget, samples int, seed int64) []int64 {
	if total <= 0 {
		return nil
	}
	if budget <= 0 || int64(budget) >= total {
		pts := make([]int64, total)
		for i := range pts {
			pts[i] = int64(i)
		}
		return pts
	}
	pts := make([]int64, 0, budget+samples)
	for i := 0; i < budget; i++ {
		pts = append(pts, int64(i))
	}
	rest := total - int64(budget)
	if int64(samples) > rest {
		samples = int(rest)
	}
	// One pick per equal stratum of the unenumerated tail; seeded offsets
	// keep the schedule reproducible without ever repeating a point.
	for i := 0; i < samples; i++ {
		lo := int64(budget) + rest*int64(i)/int64(samples)
		hi := int64(budget) + rest*int64(i+1)/int64(samples)
		if hi <= lo {
			continue
		}
		pts = append(pts, lo+int64(uint64(mix(seed, int64(i), total))%uint64(hi-lo)))
	}
	return pts
}
