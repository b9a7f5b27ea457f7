package crashx

import (
	"fmt"
	"maps"
	"sort"

	"fasp/internal/btree"
	"fasp/internal/pager"
	"fasp/internal/pmem"
)

// Failure records one oracle violation. Err is kept as a string so a
// reproduced failure can be compared byte-for-byte against the original.
type Failure struct {
	Spec Spec
	Err  string
}

// Report summarises one exploration.
type Report struct {
	// TotalPoints is the workload's crash-point count (one uncrashed run).
	TotalPoints int64
	// Enumerated and Sampled split the explored primary points.
	Enumerated, Sampled int
	// LotteriesPerPoint is the eviction sweep width.
	LotteriesPerPoint int
	// Runs counts every workload replay (primary and nested).
	Runs int
	// NestedRuns counts the replays that injected a recovery crash.
	NestedRuns int
	// Failures holds every oracle violation found (bounded by MaxFailures).
	Failures []Failure
}

// Ok reports whether the exploration found no violations.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

// Result is the outcome of one schedule replay.
type Result struct {
	// Crashed reports whether the primary crash fired (false when the
	// crash point lies beyond the workload).
	Crashed bool
	// RecCrashed reports whether the nested recovery crash fired.
	RecCrashed bool
	// Acked is the number of workload transactions acknowledged before the
	// crash.
	Acked int
	// RecPoints is the number of crash points recovery executed (measured
	// on the first, possibly interrupted, recovery attempt only when no
	// nested crash was requested).
	RecPoints int64
	// Err is the oracle violation or harness error, nil on success.
	Err error
}

// Measure replays the workload once without crashing and returns its
// crash-point count. It doubles as a workload validity check: every op must
// succeed, and the final store state must match the replayed model.
func Measure(cfg *Config) (int64, error) {
	if err := cfg.fill(); err != nil {
		return 0, err
	}
	sys, st := cfg.Open()
	base := sys.CrashPoints()
	tree := btree.New(st)
	for t, lo := 0, 0; lo < len(cfg.Workload); t++ {
		var err error
		if st, tree, err = cfg.atOp(lo, st, tree); err != nil {
			return 0, fmt.Errorf("crashx: AtOp hook before op %d failed uncrashed: %w", lo, err)
		}
		n, i, err := applyTxn(tree, cfg.Workload[lo:], cfg.txnUnits(t))
		if err != nil {
			i += lo
			return 0, fmt.Errorf("crashx: workload op %d (%s %q) failed uncrashed: %w",
				i, cfg.Workload[i].Kind, cfg.Workload[i].Key, err)
		}
		lo += n
	}
	total := sys.CrashPoints() - base
	if err := checkOracle(st, cfg.Workload, len(cfg.Workload), nil, cfg.Check); err != nil {
		return 0, fmt.Errorf("crashx: uncrashed run fails its own oracle: %w", err)
	}
	return total, nil
}

// Run replays the workload under one fully pinned crash schedule and checks
// the durability oracle after recovery. It is deterministic: the same
// Config and Spec always produce the same Result, down to the error text.
func Run(cfg *Config, spec Spec) Result {
	if err := cfg.fill(); err != nil {
		return Result{Err: err}
	}
	if err := spec.Evict.Validate(); err != nil {
		return Result{Err: err}
	}
	if spec.RecPoint >= 0 {
		if err := spec.RecEvict.Validate(); err != nil {
			return Result{Err: err}
		}
	}
	res := Result{RecPoints: -1}

	sys, st := cfg.Open()
	tree := btree.New(st)
	var opErr error
	var inflight []int // the units of the transaction in flight
	sys.CrashAfter(spec.Point)
	res.Crashed = sys.RunToCrash(func() {
		for t, lo := 0, 0; lo < len(cfg.Workload); t++ {
			inflight = cfg.txnUnits(t)
			var err error
			if st, tree, err = cfg.atOp(lo, st, tree); err != nil {
				opErr = fmt.Errorf("crashx: AtOp hook before op %d failed: %w", lo, err)
				return
			}
			n, i, err := applyTxn(tree, cfg.Workload[lo:], inflight)
			if err != nil {
				opErr = fmt.Errorf("crashx: workload op %d failed: %w", lo+i, err)
				return
			}
			res.Acked += n
			lo += n
		}
		inflight = nil
	})
	sys.DisarmCrash()
	if opErr != nil {
		res.Err = opErr
		return res
	}

	// Power failure proper: the eviction lottery decides which dirty lines
	// the hardware happened to write back.
	sys.Crash(spec.Evict)

	// First recovery, optionally interrupted by a nested crash.
	recBase := sys.CrashPoints()
	var st2 pager.Store
	var recErr error
	recoverOnce := func() {
		st2, recErr = cfg.Reattach(st)
	}
	if spec.RecPoint >= 0 {
		sys.CrashAfter(spec.RecPoint)
		res.RecCrashed = sys.RunToCrash(recoverOnce)
		sys.DisarmCrash()
		if res.RecCrashed {
			// Second power failure, mid-recovery. Apply its lottery and
			// recover again: recovery must be idempotent.
			sys.Crash(spec.RecEvict)
			recoverOnce()
		}
	} else {
		res.RecCrashed = sys.RunToCrash(recoverOnce)
		sys.DisarmCrash()
		if res.RecCrashed {
			res.Err = fmt.Errorf("crashx: recovery crashed without an armed nested crash")
			return res
		}
		res.RecPoints = sys.CrashPoints() - recBase
	}
	if recErr != nil {
		res.Err = fmt.Errorf("crashx: recovery failed: %v", recErr)
		return res
	}

	res.Err = checkOracle(st2, cfg.Workload, res.Acked, inflight, cfg.Check)
	return res
}

// atOp runs the pre-op hook (when configured) and rebinds the replay's
// store and tree if the hook swapped stores.
func (c *Config) atOp(i int, st pager.Store, tree *btree.Tree) (pager.Store, *btree.Tree, error) {
	if c.AtOp == nil {
		return st, tree, nil
	}
	ns, err := c.AtOp(i, st)
	if err != nil {
		return st, tree, err
	}
	if ns != nil && ns != st {
		return ns, btree.New(ns), nil
	}
	return st, tree, nil
}

// Apply runs one workload op as its own transaction.
func Apply(tree *btree.Tree, op *Op) error {
	_, _, err := applyTxn(tree, []Op{*op}, oneUnit)
	return err
}

// applyTxn runs the first sum(units) ops as one transaction, marking the
// end of every unit but the last, and returns how many ops it ran; on
// failure, which op failed.
func applyTxn(tree *btree.Tree, ops []Op, units []int) (n, failed int, err error) {
	tx, err := tree.Begin()
	if err != nil {
		return 0, 0, err
	}
	for u, size := range units {
		if u > 0 {
			tx.MarkUnit()
		}
		for end := n + size; n < end; n++ {
			if err := applyOp(tx, &ops[n]); err != nil {
				tx.Rollback()
				return 0, n, err
			}
		}
	}
	return n, 0, tx.Commit()
}

func applyOp(tx *btree.Tx, op *Op) error {
	switch op.Kind {
	case OpInsert:
		return tx.Insert(op.Key, op.Val)
	case OpUpdate:
		return tx.Update(op.Key, op.Val)
	case OpDelete:
		return tx.Delete(op.Key)
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// ModelAt replays the first k workload ops into a map — the expected store
// state at acknowledgement boundary k.
func ModelAt(ops []Op, k int) map[string]string {
	m := make(map[string]string, k)
	replay(m, ops[:k])
	return m
}

// replay applies ops to the model m.
func replay(m map[string]string, ops []Op) {
	for i := range ops {
		switch ops[i].Kind {
		case OpInsert, OpUpdate:
			m[string(ops[i].Key)] = string(ops[i].Val)
		case OpDelete:
			delete(m, string(ops[i].Key))
		}
	}
}

// checkOracle verifies the recovered store against the durability contract:
//
//  1. the B-tree validates structurally;
//  2. the store state equals the model after `acked` ops (every
//     acknowledged transaction fully present) plus some subset of the units
//     of the transaction in flight (inflight, its unit sizes; nil when none
//     was), each whole — for a one-op transaction, the model after `acked`
//     or `acked+1` ops. Nothing else: no torn unit, no resurrected delete,
//     no lost update.
//
// The mismatch description is deterministic (sorted first difference) so a
// reproduced failure matches the original byte-for-byte.
func checkOracle(st pager.Store, ops []Op, acked int, inflight []int, extra func(map[string]string, int) error) error {
	tree := btree.New(st)
	tx, err := tree.Begin()
	if err != nil {
		return fmt.Errorf("oracle: begin: %v", err)
	}
	defer tx.Rollback()
	if err := tx.Validate(); err != nil {
		return fmt.Errorf("oracle: tree invalid: %v", err)
	}
	got := map[string]string{}
	if err := tx.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		return fmt.Errorf("oracle: scan: %v", err)
	}
	wantAcked := ModelAt(ops, acked)
	match := mapsEqual(got, wantAcked)
	for mask := 1; !match && mask < 1<<len(inflight); mask++ {
		want := maps.Clone(wantAcked)
		lo := acked
		for u, n := range inflight {
			if mask&(1<<u) != 0 {
				replay(want, ops[lo:lo+n])
			}
			lo += n
		}
		match = mapsEqual(got, want)
	}
	switch {
	case match:
	case len(inflight) > 1:
		return fmt.Errorf("oracle: recovered state matches model(acked=%d) with no subset of the %d in-flight units: %s",
			acked, len(inflight), firstDiff(got, wantAcked))
	default:
		return fmt.Errorf("oracle: recovered state matches neither model(acked=%d) nor model(%d): %s",
			acked, acked+len(inflight), firstDiff(got, wantAcked))
	}
	if extra != nil {
		if err := extra(got, acked); err != nil {
			return fmt.Errorf("oracle: %v", err)
		}
	}
	return nil
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// firstDiff describes the smallest differing key between got and want.
func firstDiff(got, want map[string]string) string {
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		switch {
		case !gok:
			return fmt.Sprintf("key %q missing (want %q)", k, w)
		case !wok:
			return fmt.Sprintf("key %q unexpected (got %q)", k, g)
		case g != w:
			return fmt.Sprintf("key %q corrupt (got %q, want %q)", k, g, w)
		}
	}
	return fmt.Sprintf("sizes differ (got %d, want %d)", len(got), len(want))
}

// Explore runs the full crash-schedule exploration: every scheduled primary
// crash point × every eviction lottery, plus — when cfg.Nested is set — a
// nested crash at every scheduled recovery crash point of each crashing
// schedule. It stops early once MaxFailures violations accumulate.
func Explore(cfg *Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	total, err := Measure(cfg)
	if err != nil {
		return nil, err
	}
	points := cfg.Points
	rep := &Report{TotalPoints: total, LotteriesPerPoint: 2 + cfg.Lotteries}
	switch {
	case points != nil:
		rep.Enumerated = len(points)
	default:
		points = schedule(total, cfg.Budget, cfg.Samples, cfg.Seed)
		if cfg.Budget <= 0 || int64(cfg.Budget) >= total {
			rep.Enumerated = len(points)
		} else {
			rep.Enumerated = cfg.Budget
			rep.Sampled = len(points) - cfg.Budget
		}
	}

	fail := func(spec Spec, err error) bool {
		f := Failure{Spec: spec, Err: err.Error()}
		rep.Failures = append(rep.Failures, f)
		if cfg.OnFailure != nil {
			cfg.OnFailure(f)
		}
		return len(rep.Failures) >= cfg.MaxFailures
	}
	for pi, p := range points {
		for _, lot := range cfg.lotteries(p) {
			spec := Spec{Point: p, Evict: lot, RecPoint: -1}
			res := Run(cfg, spec)
			rep.Runs++
			if res.Err != nil {
				if fail(spec, res.Err) {
					return rep, nil
				}
				continue
			}
			if !cfg.Nested || !res.Crashed || res.RecPoints <= 0 {
				continue
			}
			// Re-explore this schedule with a second crash at each
			// scheduled point inside recovery. The nested lottery reuses
			// the primary's eviction probability with a decorrelated seed:
			// the hardware's behavior does not change between failures.
			rpts := schedule(res.RecPoints, cfg.NestedBudget, cfg.NestedSamples, mix(cfg.Seed, p, lot.Seed))
			for _, rp := range rpts {
				nspec := spec
				nspec.RecPoint = rp
				nspec.RecEvict = pmem.CrashOptions{
					Seed:      mix(cfg.Seed, p, lot.Seed, rp),
					EvictProb: lot.EvictProb,
				}
				nres := Run(cfg, nspec)
				rep.Runs++
				rep.NestedRuns++
				if nres.Err != nil {
					if fail(nspec, nres.Err) {
						return rep, nil
					}
				}
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(pi+1, len(points), rep.Runs)
		}
	}
	return rep, nil
}
