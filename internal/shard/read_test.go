package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fasp/internal/obsv"
	"fasp/internal/pmem"
	"fasp/internal/shard"
)

// TestConcurrentReadStress runs reader and scanner goroutines against a
// writer doing inserts (with page splits) and group commits, under -race in
// CI. Every value a reader observes must be exactly the model value for its
// key, and any key the writer has acknowledged must be visible. This is the
// read gate's soundness test: a torn or mid-commit read would surface as a
// malformed value, a phantom miss, or a race-detector report.
func TestConcurrentReadStress(t *testing.T) {
	// One shard too: there the writer's Do commits on its own goroutine.
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { concurrentReadStress(t, shards, 6, 1) })
	}
	// Scans in both directions holding the read gate chunk after chunk,
	// beside the committing writer.
	t.Run("shards=4/scanners=4", func(t *testing.T) { concurrentReadStress(t, 4, 2, 4) })
}

func concurrentReadStress(t *testing.T, shards, nReaders, nScanners int) {
	const nKeys = 1500
	e := newTestEngine(t, shards, 8)
	var acked atomic.Int64
	acked.Store(-1)
	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < nKeys; i++ {
			if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			acked.Store(int64(i))
		}
	}()

	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := uint64(r)*2654435761 + 12345
			for !stop.Load() {
				max := acked.Load()
				if max < 0 {
					continue
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				j := int(rng % uint64(max+1))
				v, ok, err := e.Get(key(j))
				if err != nil {
					t.Errorf("reader %d: get %d: %v", r, j, err)
					return
				}
				if !ok {
					t.Errorf("reader %d: acked key %d missing", r, j)
					return
				}
				if !bytes.Equal(v, val(j)) {
					t.Errorf("reader %d: key %d = %q, want %q", r, j, v, val(j))
					return
				}
			}
		}(r)
	}

	// Scanners, odd ones in reverse: full scans must stay strictly ordered
	// with well-formed pairs and include everything acked before the scan
	// began.
	for sc := 0; sc < nScanners; sc++ {
		wg.Add(1)
		go func(reverse bool) {
			defer wg.Done()
			for !stop.Load() {
				before := acked.Load()
				seen := make(map[int]bool)
				var prev []byte
				err := e.ScanLimit(nil, nil, reverse, 0, func(k, v []byte) bool {
					if prev != nil && (bytes.Compare(prev, k) >= 0) != reverse {
						t.Errorf("scan order (reverse=%v) violated: %q then %q", reverse, prev, k)
						return false
					}
					prev = append(prev[:0], k...)
					var i int
					if _, err := fmt.Sscanf(string(k), "key%06d", &i); err != nil {
						t.Errorf("malformed key %q", k)
						return false
					}
					if !bytes.Equal(v, val(i)) {
						t.Errorf("scan key %d = %q, want %q", i, v, val(i))
						return false
					}
					seen[i] = true
					return true
				})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				for i := int64(0); i <= before; i++ {
					if !seen[int(i)] {
						t.Errorf("scan (reverse=%v) missed acked key %d", reverse, i)
						return
					}
				}
				// Count is not a snapshot, but records only grow here.
				n, err := e.Count()
				if err != nil {
					t.Errorf("count: %v", err)
					return
				}
				if n < int(before+1) {
					t.Errorf("count %d < acked %d", n, before+1)
					return
				}
			}
		}(sc%2 == 1)
	}

	wg.Wait()
	// Final state must be complete and intact.
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	n, err := e.Count()
	if err != nil || n != nKeys {
		t.Fatalf("final count %d (%v), want %d", n, err, nKeys)
	}
}

// TestReadsAddNoCrashPoints runs the same deterministic write workload on
// twin engines, interleaving heavy reads on one of them, and requires every
// shard's machine state — crash points, PM event counters, simulated clock —
// to be bit-identical. Optimistic reads must be invisible to the simulated
// machine, or the crash-schedule explorer and the golden determinism files
// would shift under read load.
func TestReadsAddNoCrashPoints(t *testing.T) {
	const shards = 4
	build := func(withReads bool) *shard.Engine {
		e := newTestEngine(t, shards, 8)
		for i := 0; i < 400; i += 20 {
			batch := make([]shard.Op, 0, 20)
			for j := i; j < i+20; j++ {
				batch = append(batch, shard.Op{Kind: shard.OpPut, Key: key(j), Val: val(j)})
			}
			for _, err := range e.ApplyBatch(batch) {
				if err != nil {
					t.Fatalf("apply: %v", err)
				}
			}
			if withReads {
				for j := 0; j < i+20; j += 7 {
					if _, ok, err := e.Get(key(j)); !ok || err != nil {
						t.Fatalf("get %d: %v %v", j, ok, err)
					}
				}
				if err := e.ScanLimit(nil, nil, false, 0, func(_, _ []byte) bool { return true }); err != nil {
					t.Fatal(err)
				}
				if err := e.ScanShard(i%shards, nil, nil, func(_, _ []byte) bool { return true }); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Count(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e
	}
	quiet := build(false)
	noisy := build(true)
	for i := 0; i < shards; i++ {
		qi, ni := quiet.ShardInfo(i), noisy.ShardInfo(i)
		if qi.SimNS != ni.SimNS {
			t.Errorf("shard %d: reads moved the clock: %d vs %d", i, qi.SimNS, ni.SimNS)
		}
		if qi.PM != ni.PM {
			t.Errorf("shard %d: reads changed PM stats:\n  quiet %+v\n  noisy %+v", i, qi.PM, ni.PM)
		}
		if qp, np := quiet.ShardSys(i).CrashPoints(), noisy.ShardSys(i).CrashPoints(); qp != np {
			t.Errorf("shard %d: reads added crash points: %d vs %d", i, qp, np)
		}
	}
}

// TestReadPathSelection pins which path serves reads on a healthy,
// uncontended shard: the read gate, never the shard lock, and no queuing.
func TestReadPathSelection(t *testing.T) {
	cfg := testConfig(2, 8, 0)
	rec := obsv.New(obsv.Config{SampleEvery: 1})
	cfg.Recorder = rec
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 50; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, ok, err := e.Get(key(i)); !ok || err != nil {
			t.Fatalf("get %d: %v %v", i, ok, err)
		}
	}
	snap := rec.Snapshot()
	if snap.GetOptimistic != 50 || snap.GetLocked != 0 || snap.GetRetries != 0 {
		t.Fatalf("optimistic=%d locked=%d retries=%d, want 50/0/0", snap.GetOptimistic, snap.GetLocked, snap.GetRetries)
	}
	if m := snap.OpStats(obsv.OpGet).SimMeanNS; m <= 0 {
		t.Fatalf("OpGet simulated mean %v ns, want > 0", m)
	}
}

// TestReadWaitsForWriteGate holds every shard's write gate, as a commit
// does, and starts a Get and two scans (each over more than one chunk):
// none may return while the gate is held. Once the gate opens, each
// returns the committed values, the Get counts as optimistic and queued,
// and no shard clock, PM counter or crash point has moved.
func TestReadWaitsForWriteGate(t *testing.T) {
	const shards, n = 2, 700 // n: over one scan chunk per shard
	cfg := testConfig(shards, 8, 0)
	rec := obsv.New(obsv.Config{SampleEvery: 1})
	cfg.Recorder = rec
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < n; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	type machine struct {
		simNS  int64
		pm     pmem.Stats
		points int64
	}
	machines := func() (out [shards]machine) {
		for i := range out {
			in := e.ShardInfo(i)
			out[i] = machine{in.SimNS, in.PM, e.ShardSys(i).CrashPoints()}
		}
		return out
	}
	before := machines()
	base := rec.Snapshot()
	var release []func()
	for i := 0; i < shards; i++ {
		release = append(release, e.HoldWriteGate(i))
	}

	type result struct {
		name string
		got  []string
		err  error
	}
	done := make(chan result, 3)
	started := make(chan struct{}, cap(done))
	const probe = 7
	go func() {
		started <- struct{}{}
		v, ok, err := e.Get(key(probe))
		if err == nil && !ok {
			err = errors.New("missing")
		}
		done <- result{"get", []string{string(v)}, err}
	}()
	scan := func(name string, run func(fn func(k, v []byte) bool) error) {
		started <- struct{}{}
		var got []string
		err := run(func(k, v []byte) bool {
			got = append(got, string(k)+"="+string(v))
			return true
		})
		done <- result{name, got, err}
	}
	go scan("scanshard", func(fn func(k, v []byte) bool) error { return e.ScanShard(0, nil, nil, fn) })
	go scan("reverse scan", func(fn func(k, v []byte) bool) error { return e.ScanLimit(nil, nil, true, 0, fn) })

	// Every reader has started; give each ample time to get past the gate
	// if it could.
	for i := 0; i < cap(done); i++ {
		<-started
	}
	select {
	case r := <-done:
		t.Fatalf("%s returned while the write gate was held: %d results, %v", r.name, len(r.got), r.err)
	case <-time.After(100 * time.Millisecond):
	}
	for _, open := range release {
		open()
	}

	var shard0 []string
	for i := 0; i < n; i++ {
		if e.ShardFor(key(i)) == 0 {
			shard0 = append(shard0, string(key(i))+"="+string(val(i)))
		}
	}
	var all []string
	for i := n - 1; i >= 0; i-- {
		all = append(all, string(key(i))+"="+string(val(i)))
	}
	want := map[string][]string{"get": {string(val(probe))}, "scanshard": shard0, "reverse scan": all}
	for range want {
		r := <-done
		if r.err != nil {
			t.Fatalf("%s: %v", r.name, r.err)
		}
		if fmt.Sprint(r.got) != fmt.Sprint(want[r.name]) {
			t.Errorf("%s saw %d pairs, want %d: first %.80v", r.name, len(r.got), len(want[r.name]), r.got)
		}
	}
	snap := rec.Snapshot()
	if d := snap.GetOptimistic - base.GetOptimistic; d != 1 {
		t.Errorf("GetOptimistic grew by %d, want 1", d)
	}
	if d := snap.GetLocked - base.GetLocked; d != 0 {
		t.Errorf("GetLocked grew by %d on healthy shards", d)
	}
	if d := snap.GetRetries - base.GetRetries; d != 1 {
		t.Errorf("GetRetries grew by %d, want 1", d)
	}
	if after := machines(); after != before {
		t.Errorf("queued reads touched the machine:\n  before %+v\n  after  %+v", before, after)
	}
}

// TestCountWaitsForEveryShard parks shard 0's count behind its write gate
// and crashes shard 2: Count must not return while shard 0 still counts,
// and once the gate opens it returns shard 2's ErrCrashed.
func TestCountWaitsForEveryShard(t *testing.T) {
	e := newTestEngine(t, 4, 8)
	for i := 0; i < 200; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RestoreShard(2, e.MediumSnapshots()[2]); err != nil {
		t.Fatal(err)
	}
	release := e.HoldWriteGate(0)
	done := make(chan error, 1)
	go func() {
		_, err := e.Count()
		done <- err
	}()
	select {
	case err := <-done:
		release()
		t.Fatalf("Count returned (%v) while shard 0 was still counting", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-done; !errors.Is(err, shard.ErrCrashed) {
		t.Fatalf("Count = %v, want ErrCrashed", err)
	}
}

// TestWriterWaitsForReader holds one read step open and submits a write to
// its shard: the write reaches the read gate and waits there, and the step
// keeps seeing the state before it. Once the step closes, the write
// completes and the next read sees it.
func TestWriterWaitsForReader(t *testing.T) {
	// One shard too: there Do commits on the caller's goroutine.
	for _, shards := range []int{2, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newTestEngine(t, shards, 8)
			k, old, upd := key(1), val(1), []byte("updated")
			if err := e.Do(shard.Op{Kind: shard.OpPut, Key: k, Val: old}); err != nil {
				t.Fatal(err)
			}
			get, release, err := e.HoldReadStep(e.ShardFor(k))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- e.Do(shard.Op{Kind: shard.OpPut, Key: k, Val: upd}) }()
			deadline := time.Now().Add(10 * time.Second)
			for !e.WriterQueued(e.ShardFor(k)) {
				select {
				case err := <-done:
					release()
					t.Fatalf("the write returned (%v) while a read step was open", err)
				default:
				}
				if time.Now().After(deadline) {
					release()
					t.Fatal("the write never reached the read gate")
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-done:
				release()
				t.Fatalf("the write returned (%v) while a read step was open", err)
			default:
			}
			if v, ok, err := get(k); err != nil || !ok || !bytes.Equal(v, old) {
				release()
				t.Fatalf("held step read %q %v %v, want %q", v, ok, err, old)
			}
			release()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the write did not complete after the read step closed")
			}
			if v, ok, err := e.Get(k); err != nil || !ok || !bytes.Equal(v, upd) {
				t.Fatalf("get after the write = %q %v %v, want %q", v, ok, err, upd)
			}
		})
	}
}

// TestScanCallbackReadsSameShard calls Get, and Puts the pair back, on the
// shard being scanned from inside ScanShard and ScanLimit callbacks while a
// writer commits to it. The read gate is not reentrant: a callback run
// inside a read step would queue behind the writer, which queues behind
// that step, and the scan would never finish; the callback's own Put would
// wait for that step for ever.
func TestScanCallbackReadsSameShard(t *testing.T) {
	const n = 600 // over two scan chunks
	// Closed only on success: a deadlocked shard would hang Close.
	e, err := shard.New(testConfig(1, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	writer := make(chan error, 1)
	go func() {
		for i := n; !stop.Load(); i++ {
			if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(n + i%2000), Val: val(i)}); err != nil {
				writer <- err
				return
			}
		}
		writer <- nil
	}()
	scans := make(chan error, 1)
	go func() {
		seen := 0
		check := func(k, v []byte) bool {
			got, ok, err := e.Get(k)
			if err != nil || !ok || !bytes.Equal(got, v) {
				return false
			}
			if err := e.Do(shard.Op{Kind: shard.OpPut, Key: append([]byte(nil), k...), Val: got}); err != nil {
				return false
			}
			seen++
			return true
		}
		for round := 0; round < 4; round++ {
			for _, run := range []func() error{
				func() error { return e.ScanShard(0, nil, key(n-1), check) },
				func() error { return e.ScanLimit(nil, key(n-1), false, 0, check) },
			} {
				seen = 0
				if err := run(); err != nil {
					scans <- err
					return
				}
				if seen != n {
					scans <- fmt.Errorf("round %d: a callback's Get or Put failed after %d of %d pairs", round, seen, n)
					return
				}
			}
		}
		scans <- nil
	}()
	select {
	case err := <-scans:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("scans whose callbacks read and write the same shard did not finish: a callback ran inside the read gate")
	}
	stop.Store(true)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	e.Close()
}

// TestReadFallbackSemantics pins the error contract on unhealthy shards:
// a read step refused inside the gate must surface exactly the canonical
// errors, and a refused Get counts on the "locked" read path.
func TestReadFallbackSemantics(t *testing.T) {
	cfg := testConfig(2, 8, 0)
	rec := obsv.New(obsv.Config{SampleEvery: 1})
	cfg.Recorder = rec
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	for i := 0; i < 100; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpInsert, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Crash(pmem.CrashOptions{Seed: 9, EvictProb: 0.5})
	if _, _, err := e.Get(key(0)); !errors.Is(err, shard.ErrCrashed) {
		t.Fatalf("get on crashed shard: %v", err)
	}
	if snap := rec.Snapshot(); snap.GetOptimistic != 0 || snap.GetLocked != 1 {
		t.Fatalf("refused get: optimistic=%d locked=%d, want 0/1", snap.GetOptimistic, snap.GetLocked)
	}
	if err := e.ScanLimit(nil, nil, false, 0, func(_, _ []byte) bool { return true }); !errors.Is(err, shard.ErrCrashed) {
		t.Fatalf("scan on crashed engine: %v", err)
	}
	if err := e.ScanShard(0, nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, shard.ErrCrashed) {
		t.Fatalf("scanshard on crashed shard: %v", err)
	}
	if _, err := e.Count(); !errors.Is(err, shard.ErrCrashed) {
		t.Fatalf("count on crashed engine: %v", err)
	}
	if err := e.Reopen(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v, ok, err := e.Get(key(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("post-reopen get %d: %q %v %v", i, v, ok, err)
		}
	}
}

// TestReadsAfterClose: Close stops the writers; reads — optimistic and
// merged scans — must keep serving the final committed state.
func TestReadsAfterClose(t *testing.T) {
	e := newTestEngine(t, 3, 8)
	const n = 120
	for i := 0; i < n; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	for i := 0; i < n; i++ {
		if v, ok, err := e.Get(key(i)); err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("post-close get %d: %q %v %v", i, v, ok, err)
		}
	}
	count := 0
	if err := e.ScanLimit(nil, nil, false, 0, func(_, _ []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("post-close scan saw %d, want %d", count, n)
	}
	if got, err := e.Count(); err != nil || got != n {
		t.Fatalf("post-close count %d (%v)", got, err)
	}
}

// TestScanEarlyStop: fn returning false must end the merge at once, in
// either direction, with or without bounds, and return every cursor's
// scratch (TestScanAllocs counts what a leak would cost).
func TestScanEarlyStop(t *testing.T) {
	e := newTestEngine(t, 4, 8)
	for i := 0; i < 2000; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		seen := 0
		if err := e.ScanLimit(nil, nil, false, 0, func(_, _ []byte) bool {
			seen++
			return seen < 5
		}); err != nil {
			t.Fatal(err)
		}
		if seen != 5 {
			t.Fatalf("early stop visited %d", seen)
		}
	}
	// Reverse with bounds, early stop.
	var got []string
	if err := e.ScanLimit(key(100), key(1900), true, 0, func(k, _ []byte) bool {
		got = append(got, string(k))
		return len(got) < 3
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{string(key(1900)), string(key(1899)), string(key(1898))}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reverse scan = %v, want %v", got, want)
		}
	}
}

// TestScanLimitReachesShards pins the limit pushdown: a 16-pair page on
// a 4-shard engine gathers at most 16 pairs on each shard — where an
// unlimited Scan stopped by fn after 16 has every shard fill a whole chunk
// — and delivers exactly the pairs the unlimited scan would have, in both
// directions, and across a limit larger than one chunk.
func TestScanLimitReachesShards(t *testing.T) {
	e := newTestEngine(t, 4, 8)
	const n = 4000
	for i := 0; i < n; i++ {
		if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}); err != nil {
			t.Fatal(err)
		}
	}
	gathered := func() (per [4]int64) {
		for i := range per {
			per[i] = e.ShardInfo(i).ScanPairs
		}
		return per
	}
	for _, tc := range []struct {
		reverse bool
		limit   int
	}{{false, 16}, {true, 16}, {false, 300}, {false, 1}} {
		before := gathered()
		var got []string
		if err := e.ScanLimit(key(100), key(n-100), tc.reverse, tc.limit, func(k, v []byte) bool {
			got = append(got, string(k)+"="+string(v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		after := gathered()
		if len(got) != tc.limit {
			t.Fatalf("%+v: visited %d pairs", tc, len(got))
		}
		for i, kv := range got {
			j := 100 + i
			if tc.reverse {
				j = n - 100 - i
			}
			if want := string(key(j)) + "=" + string(val(j)); kv != want {
				t.Fatalf("%+v: pair %d = %s, want %s", tc, i, kv, want)
			}
		}
		for i := range after {
			if d := after[i] - before[i]; d > int64(tc.limit) {
				t.Errorf("%+v: shard %d gathered %d pairs", tc, i, d)
			}
		}
	}
	// The contrast: the same page taken by stopping fn gathers a full
	// chunk on every shard.
	before := gathered()
	seen := 0
	if err := e.ScanLimit(nil, nil, false, 0, func(_, _ []byte) bool { seen++; return seen < 16 }); err != nil {
		t.Fatal(err)
	}
	for i, a := range gathered() {
		if d := a - before[i]; d < 256 {
			t.Errorf("unlimited scan gathered %d pairs on shard %d, expected a full chunk", d, i)
		}
	}
}

// TestScanAllocs pins the range read's allocations: after warm-up, a
// 16-pair page across four shards (server-mixed's SCAN shape) and an
// unlimited scan stopped early by fn each allocate at most once per call —
// the merge's cursor slice. Every cursor returns its chunk scratch to the
// pool on every return, so the pool stays warm.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const n, page = 4096, 16
	e := newTestEngine(t, 4, 64)
	value := bytes.Repeat([]byte("v"), 64)
	batch := make([]shard.Op, 0, 64)
	for i := 0; i < n; i++ {
		batch = append(batch, shard.Op{Kind: shard.OpPut, Key: key(i), Val: value})
		if len(batch) == cap(batch) || i == n-1 {
			for _, err := range e.ApplyBatch(batch) {
				if err != nil {
					t.Fatal(err)
				}
			}
			batch = batch[:0]
		}
	}
	lo, hi := key(n/4), key(3*n/4)
	seen := 0
	count := func(_, _ []byte) bool { seen++; return true }
	stop := func(_, _ []byte) bool { seen++; return seen < page }
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"page", func() error { return e.ScanLimit(lo, hi, false, page, count) }},
		{"page-reverse", func() error { return e.ScanLimit(lo, hi, true, page, count) }},
		{"stopped-by-fn", func() error { return e.ScanLimit(lo, hi, false, 0, stop) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			seen = 0
			if rerr := tc.run(); rerr != nil {
				err = rerr
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if seen != page {
			t.Fatalf("%s: visited %d pairs, want %d", tc.name, seen, page)
		}
		t.Logf("%s: %.1f allocs per scan", tc.name, allocs)
		if allocs > 1 {
			t.Errorf("%s: %.1f allocs per scan, want <= 1", tc.name, allocs)
		}
	}
}
