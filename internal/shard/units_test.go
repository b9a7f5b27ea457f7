package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/shard"
	"fasp/internal/slotted"
)

// sizingStore records how many ops each committed transaction carried.
type sizingStore struct {
	pager.Store
	sizes []int
}

func (s *sizingStore) Begin() (pager.Txn, error) {
	tx, err := s.Store.Begin()
	if err != nil {
		return nil, err
	}
	return &sizingTxn{Txn: tx, st: s}, nil
}

type sizingTxn struct {
	pager.Txn
	st  *sizingStore
	ops int
}

func (t *sizingTxn) OpEnd() {
	t.ops++
	t.Txn.OpEnd()
}

func (t *sizingTxn) Commit() error {
	t.st.sizes = append(t.st.sizes, t.ops)
	return t.Txn.Commit()
}

// TestRequestNotTornAcrossTransactions: two 40-op submissions drained into
// one round at MaxBatch 64 commit as two transactions of 40 ops, not as ops
// [0, 64) and [64, 80) — which would leave the second request half in one
// failure-atomic transaction and half in the next.
func TestRequestNotTornAcrossTransactions(t *testing.T) {
	cfg := testConfig(1, 64, 0)
	bs := &blockingStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	ss := &sizingStore{}
	open := cfg.Open
	cfg.Open = func(i int) (*shard.Backend, error) {
		be, err := open(i)
		if err != nil {
			return nil, err
		}
		ss.Store = be.Store
		bs.Store = ss
		be.Store = bs
		return be, nil
	}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Wedge the writer on a one-op round, queue both requests behind it,
	// and let it drain them together.
	bs.arm.Store(true)
	first := make(chan error, 1)
	go func() { first <- submit1(e, 0, shard.Op{Kind: shard.OpInsert, Key: key(0), Val: val(0)}) }()
	<-bs.entered
	var reqs [2]shard.Request
	var errs [2][]error
	for r := range reqs {
		ops := make([]shard.Op, 40)
		for i := range ops {
			k := 1 + 40*r + i
			ops[i] = shard.Op{Kind: shard.OpInsert, Key: key(k), Val: val(k)}
		}
		errs[r] = make([]error, len(ops))
		e.Enqueue(&reqs[r], 0, ops, errs[r], nil)
	}
	close(bs.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for r := range reqs {
		e.Wait(&reqs[r])
		for i, err := range errs[r] {
			if err != nil {
				t.Fatalf("request %d op %d: %v", r, i, err)
			}
		}
	}
	if want := []int{1, 40, 40}; !reflect.DeepEqual(ss.sizes, want) {
		t.Fatalf("transactions of %v ops, want %v", ss.sizes, want)
	}
	if in := e.ShardInfo(0); in.Batches != 3 {
		t.Fatalf("%d batches, want 3", in.Batches)
	}
}

// TestApplyUnitsChunking: units pack whole into transactions of at most
// maxBatch ops; a unit larger than maxBatch is cut every maxBatch ops in
// transactions of its own; nil units cut every maxBatch ops as ApplyOps does.
func TestApplyUnitsChunking(t *testing.T) {
	for _, tc := range []struct {
		units []int32
		n     int
		want  []int
	}{
		{nil, 80, []int{64, 16}},
		{[]int32{40, 40}, 80, []int{40, 40}},
		{[]int32{10, 20, 30, 5, 40}, 105, []int{60, 45}},
		{[]int32{10, 100, 10}, 120, []int{10, 64, 36, 10}},
		{[]int32{64, 1}, 65, []int{64, 1}},
	} {
		sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
		ss := &sizingStore{Store: fast.Create(sys, fast.Config{Variant: fast.InPlaceCommit})}
		ops := make([]shard.Op, tc.n)
		for i := range ops {
			ops[i] = shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)}
		}
		errs := make([]error, len(ops))
		if got := shard.ApplyUnits(btree.New(ss), 64, ops, errs, tc.units); got != int64(len(tc.want)) {
			t.Fatalf("units %v: %d transactions, want %d", tc.units, got, len(tc.want))
		}
		if !reflect.DeepEqual(ss.sizes, tc.want) {
			t.Fatalf("units %v: transactions of %v ops, want %v", tc.units, ss.sizes, tc.want)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("units %v, op %d: %v", tc.units, i, err)
			}
		}
	}
}

// roundCost is what one arm of TestUnitMarkedRoundCostPin measured.
type roundCost struct {
	simNSPerOp, flushesPerOp float64
	units, installs, logged  int64
}

// measureRounds loads a FAST+ tree with records 8-byte keys and 64-byte
// values in a fixed shuffled order, then applies rounds of Puts on random
// loaded keys, each round as one group commit split into units.
func measureRounds(t *testing.T, records, rounds int, units []int32) roundCost {
	t.Helper()
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := fast.Create(sys, fast.Config{MaxPages: 8192, Variant: fast.InPlaceCommit})
	tree := btree.New(st)
	rk := func(i int) []byte { return []byte(fmt.Sprintf("%08d", i)) }
	val := make([]byte, 64)
	rng := rand.New(rand.NewSource(1))
	load := make([]shard.Op, records)
	for i, k := range rng.Perm(records) {
		load[i] = shard.Op{Kind: shard.OpInsert, Key: rk(k), Val: val}
	}
	errs := make([]error, records)
	shard.ApplyOps(tree, 64, load, errs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("load op %d: %v", i, err)
		}
	}

	width := 0
	for _, n := range units {
		width += int(n)
	}
	ops := make([]shard.Op, width)
	errs = errs[:width]
	t0, f0, s0 := sys.Clock().Now(), st.Arena().Stats().FlushCalls, st.Stats()
	for r := 0; r < rounds; r++ {
		for i := range ops {
			val[0] = byte(r)
			ops[i] = shard.Op{Kind: shard.OpPut, Key: rk(rng.Intn(records)), Val: val}
		}
		shard.ApplyUnits(tree, 64, ops, errs, units)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d op %d: %v", r, i, err)
			}
		}
	}
	n := float64(rounds * width)
	s := st.Stats()
	// An in-place commit is a transaction that wrote no log, whatever
	// number of slot headers it installed.
	if d := s.Commits - s0.Commits; d != s.InPlaceCommits-s0.InPlaceCommits+s.LogCommits-s0.LogCommits || d != int64(rounds) {
		t.Fatalf("%d commits for %d rounds: %+v -> %+v", d, rounds, s0, s)
	}
	return roundCost{
		simNSPerOp:   float64(sys.Clock().Now()-t0) / n,
		flushesPerOp: float64(st.Arena().Stats().FlushCalls-f0) / n,
		units:        int64(rounds * len(units)),
		installs:     s.InPlaceInstalls - s0.InPlaceInstalls,
		logged:       s.LogCommits - s0.LogCommits,
	}
}

// TestUnitMarkedRoundCostPin pins, on the simulated clock, what marking the
// request boundaries of a group commit buys under FAST+: rounds of eight
// single-Put requests committed as one transaction with eight marked units
// cost at least 10% less per op than the same rounds committed as one
// unmarked transaction, and nearly every unit commits by its own in-place
// slot-header install. A round of four single-Put requests and one 4-Put
// request sits in between. Every number is a pure function of the op stream.
func TestUnitMarkedRoundCostPin(t *testing.T) {
	const records, rounds = 50000, 20000
	whole := measureRounds(t, records, rounds, []int32{8})
	marked := measureRounds(t, records, rounds, []int32{1, 1, 1, 1, 1, 1, 1, 1})
	mixed := measureRounds(t, records, rounds, []int32{1, 1, 1, 1, 4})
	for _, arm := range []struct {
		name string
		c    roundCost
	}{{"one whole-round unit", whole}, {"eight marked units", marked}, {"four units and a 4-op unit", mixed}} {
		t.Logf("%s: %.0f sim ns/op, %.2f flushes/op, %d in-place installs for %d units, %d of %d rounds logged",
			arm.name, arm.c.simNSPerOp, arm.c.flushesPerOp, arm.c.installs, arm.c.units, arm.c.logged, rounds)
	}
	if marked.simNSPerOp > 0.9*whole.simNSPerOp {
		t.Fatalf("marked units cost %.0f sim ns/op against %.0f for the whole round: less than 10%% saved",
			marked.simNSPerOp, whole.simNSPerOp)
	}
	if !(marked.simNSPerOp < mixed.simNSPerOp && mixed.simNSPerOp < whole.simNSPerOp) {
		t.Fatalf("the mixed round (%.0f ns/op) does not sit between marked (%.0f) and whole (%.0f)",
			mixed.simNSPerOp, marked.simNSPerOp, whole.simNSPerOp)
	}
	if marked.installs < marked.units*9/10 {
		t.Fatalf("%d in-place installs for %d single-leaf units", marked.installs, marked.units)
	}
}

// TestHardErrorKeepsUnitsWhole: a round drained from several connections
// runs out of pages mid-way. The round is applied again one unit per
// transaction, so every request is whole or absent — all of its ops nil and
// every key readable, or all of them pager.ErrFull and none — and the tree
// stays valid. Re-applying op by op instead tears the request the page
// space ran out in.
func TestHardErrorKeepsUnitsWhole(t *testing.T) {
	const conns, reqs, width = 6, 2, 8 // per connection: reqs requests of width ops
	cfg := testConfig(1, 64, 10)
	bs := &blockingStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	open := cfg.Open
	cfg.Open = func(i int) (*shard.Backend, error) {
		be, err := open(i)
		if err != nil {
			return nil, err
		}
		bs.Store = be.Store
		be.Store = bs
		return be, nil
	}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Wedge the writer on a one-op round and queue every connection's
	// submission behind it, so that they drain as one round.
	bs.arm.Store(true)
	first := make(chan error, 1)
	go func() { first <- submit1(e, 0, shard.Op{Kind: shard.OpInsert, Key: key(0), Val: val(0)}) }()
	<-bs.entered
	big := bytes.Repeat([]byte("v"), 64)
	var handles [conns]shard.Request
	var ops [conns][]shard.Op
	var errs [conns][]error
	units := make([]int32, reqs)
	for r := range units {
		units[r] = width
	}
	for c := range handles {
		for i := 0; i < reqs*width; i++ {
			ops[c] = append(ops[c], shard.Op{Kind: shard.OpInsert, Key: key(1 + c*reqs*width + i), Val: big})
		}
		errs[c] = make([]error, len(ops[c]))
		e.Enqueue(&handles[c], 0, ops[c], errs[c], units)
	}
	close(bs.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	whole, absent := 0, 0
	for c := range handles {
		e.Wait(&handles[c])
		for r := 0; r < reqs; r++ {
			lo, hi := r*width, (r+1)*width
			acked := errs[c][lo] == nil
			for i := lo; i < hi; i++ {
				if err := errs[c][i]; (err == nil) != acked || (err != nil && !errors.Is(err, pager.ErrFull)) {
					t.Fatalf("connection %d, request %d torn: op %d has %v, op %d has %v", c, r, lo, errs[c][lo], i, err)
				}
				_, ok, err := e.Get(ops[c][i].Key)
				if err != nil || ok != acked {
					t.Fatalf("connection %d, request %d: op %d acked %v but read finds it %v (%v)", c, r, i, acked, ok, err)
				}
			}
			if acked {
				whole++
			} else {
				absent++
			}
		}
	}
	if whole == 0 || absent == 0 {
		t.Fatalf("%d requests whole and %d absent: resize the page space so that the round runs out of it", whole, absent)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLoneSubmissionNotTorn: a submission without units is one unit, also
// when it is the only request of its round. Lone submissions of 16 scattered
// inserts go to a 10-page shard until eight of them have found the page space
// full; each one must come back whole or absent — all of its ops nil and
// every key readable, or all of them pager.ErrFull and none — and the tree
// stays valid.
func TestLoneSubmissionNotTorn(t *testing.T) {
	const width, fulls = 16, 8
	for _, size := range []int{8, 24, 64, 120} {
		t.Run(fmt.Sprintf("value=%dB", size), func(t *testing.T) {
			e, err := shard.New(testConfig(1, 64, 10))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			v := bytes.Repeat([]byte("v"), size)
			var r shard.Request
			ops := make([]shard.Op, width)
			errs := make([]error, width)
			full := 0
			for id := 0; full < fulls && id < 100000; {
				for i := range ops {
					ops[i] = shard.Op{Kind: shard.OpInsert, Key: key(id * 7919 % 1000003), Val: v}
					id++
				}
				e.Enqueue(&r, 0, ops, errs, nil)
				e.Wait(&r)
				absent := errs[0] != nil
				for i := range ops {
					if err := errs[i]; (err != nil) != absent || (err != nil && !errors.Is(err, pager.ErrFull)) {
						t.Fatalf("submission torn: op 0 has %v, op %d has %v", errs[0], i, err)
					}
					if _, ok, err := e.Get(ops[i].Key); err != nil || ok == absent {
						t.Fatalf("op %d acked %v but read finds it %v (%v)", i, !absent, ok, err)
					}
				}
				if absent {
					full++
				}
			}
			if full < fulls {
				t.Fatalf("the page space ran out for %d submissions, want %d: shrink it", full, fulls)
			}
			if err := e.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// unitStore records the atomic units of every committed transaction: the
// applied-op counts between its MarkUnit calls.
type unitStore struct {
	pager.Store
	txns [][]int
}

func (s *unitStore) Begin() (pager.Txn, error) {
	tx, err := s.Store.Begin()
	if err != nil {
		return nil, err
	}
	return &unitTxn{Txn: tx, st: s, units: []int{0}}, nil
}

type unitTxn struct {
	pager.Txn
	st    *unitStore
	units []int
}

func (t *unitTxn) OpEnd() {
	t.units[len(t.units)-1]++
	t.Txn.OpEnd()
}

func (t *unitTxn) MarkUnit() {
	t.units = append(t.units, 0)
	if m, ok := t.Txn.(interface{ MarkUnit() }); ok {
		m.MarkUnit()
	}
}

func (t *unitTxn) Commit() error {
	t.st.txns = append(t.st.txns, t.units)
	return t.Txn.Commit()
}

// TestSubmitSplitsUnits: Submit splits two requests spread over three
// shards so that every shard commits exactly one unit per request it
// touches — the request's ops on that shard — and the verdicts come back in
// request order.
func TestSubmitSplitsUnits(t *testing.T) {
	cfg := testConfig(3, 64, 0)
	stores := make([]*unitStore, 3)
	open := cfg.Open
	cfg.Open = func(i int) (*shard.Backend, error) {
		be, err := open(i)
		if err != nil {
			return nil, err
		}
		stores[i] = &unitStore{Store: be.Store}
		be.Store = stores[i]
		return be, nil
	}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	next := 0
	on := func(si int) []byte {
		for ; ; next++ {
			if k := key(next); e.ShardFor(k) == si {
				next++
				return k
			}
		}
	}
	dup := on(1)
	if err := e.Do(shard.Op{Kind: shard.OpInsert, Key: dup, Val: val(0)}); err != nil {
		t.Fatal(err)
	}
	stores[1].txns = nil
	ins := func(k []byte) shard.Op { return shard.Op{Kind: shard.OpInsert, Key: k, Val: val(1)} }
	ops := []shard.Op{
		// Request 0: shards 0, 1, 2, 0.
		ins(on(0)), ins(on(1)), ins(on(2)), ins(on(0)),
		// Request 1: shards 2, 1, 1 (a duplicate, refused), 1.
		ins(on(2)), ins(on(1)), ins(dup), ins(on(1)),
	}
	errs := make([]error, len(ops))
	var sp shard.Submission
	e.Submit(&sp, ops, errs, []int32{4, 4})
	for i, err := range errs {
		if (i == 6) != errors.Is(err, slotted.ErrDuplicate) || (i != 6 && err != nil) {
			t.Fatalf("verdict %d = %v: want the duplicate's refusal at 6 and nil elsewhere", i, err)
		}
	}
	want := [][][]int{{{2}}, {{1, 2}}, {{1, 1}}}
	for si, st := range stores {
		if !reflect.DeepEqual(st.txns, want[si]) {
			t.Errorf("shard %d committed units %v, want %v", si, st.txns, want[si])
		}
	}
	if got := sp.Parts(); !reflect.DeepEqual(got, []int32{2, 4, 2}) {
		t.Errorf("parts %v, want [2 4 2]", got)
	}
}
