package shard_test

import (
	"errors"
	"testing"
	"time"

	"fasp/internal/obsv"
	"fasp/internal/shard"
)

// TestDoAfterCloseReturnsErrClosed pins the post-Close submission bug:
// before the closed flag, an op enqueued after Close's final drain would
// block its submitter forever waiting for a reply. Now every submission
// path must fail fast with ErrClosed.
func TestDoAfterCloseReturnsErrClosed(t *testing.T) {
	e, err := shard.New(testConfig(2, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Do(shard.Op{Kind: shard.OpPut, Key: key(1), Val: val(1)}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if !e.Closed() {
		t.Fatal("Closed() false after Close")
	}

	done := make(chan error, 1)
	go func() {
		done <- e.Do(shard.Op{Kind: shard.OpPut, Key: key(2), Val: val(2)})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, shard.ErrClosed) {
			t.Fatalf("Do after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do after Close deadlocked (the pre-fix behaviour)")
	}

	var sp shard.Submission
	errs := make([]error, 2)
	e.Submit(&sp, []shard.Op{
		{Kind: shard.OpPut, Key: key(3), Val: val(3)},
		{Kind: shard.OpPut, Key: key(4), Val: val(4)},
	}, errs, nil)
	for i, err := range errs {
		if !errors.Is(err, shard.ErrClosed) {
			t.Fatalf("Submit[%d] after Close = %v, want ErrClosed", i, err)
		}
	}
	e.Close() // still idempotent with the closed flag set
}

// TestEngineRecorderAndGauges checks the engine-side instrumentation: a
// configured recorder sees every op (wall + sim + batch accounting), and
// Gauges exposes per-shard throughput and health.
func TestEngineRecorderAndGauges(t *testing.T) {
	rec := obsv.New(obsv.Config{SampleEvery: 1})
	cfg := testConfig(4, 8, 0)
	cfg.Recorder = rec
	// The facade supplies the scheme-aware bridge; the engine test bridges
	// just the machine counters.
	cfg.Counters = func(i int, be *shard.Backend) obsv.Counters {
		return obsv.Counters{Flush: be.Arena.Stats().FlushCalls, Fence: be.Sys.Fences()}
	}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Even puts go through the shard queues, one drain each; odd ones
	// commit on the caller through Do. The recorder must see both.
	const n = 200
	for i := 0; i < n; i++ {
		op := shard.Op{Kind: shard.OpPut, Key: key(i), Val: val(i)}
		var err error
		if i%2 == 0 {
			err = submit1(e, e.ShardFor(op.Key), op)
		} else {
			err = e.Do(op)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.Get(key(5)); err != nil {
		t.Fatal(err)
	}

	s := rec.Snapshot()
	if got := s.OpStats(obsv.OpPut); got.Count != n {
		t.Fatalf("put wall observations = %d, want %d", got.Count, n)
	}
	if got := s.OpStats(obsv.OpPut); got.SimP50NS <= 0 {
		t.Fatalf("put sim p50 = %d, want > 0", got.SimP50NS)
	}
	if s.OpStats(obsv.OpGet).Count != 1 {
		t.Fatalf("get observations = %d, want 1", s.OpStats(obsv.OpGet).Count)
	}
	if s.Batches <= 0 || s.BatchSize.Count != s.Batches {
		t.Fatalf("batch accounting: batches=%d sizes=%d", s.Batches, s.BatchSize.Count)
	}
	if s.MailDepth.Count != n/2 {
		t.Fatalf("queue depth observed %d times, want one per drain (%d)",
			s.MailDepth.Count, n/2)
	}
	if s.Events.Flush <= 0 || s.Events.Fence <= 0 {
		t.Fatalf("commit-path events not bridged: %+v", s.Events)
	}
	if len(rec.TraceSamples()) == 0 {
		t.Fatal("no trace samples at SampleEvery=1")
	}

	gs := e.Gauges()
	if len(gs) != 4 {
		t.Fatalf("gauges for %d shards, want 4", len(gs))
	}
	var ops int64
	for i, g := range gs {
		if g.Shard != i {
			t.Fatalf("gauge %d has shard %d", i, g.Shard)
		}
		if g.Health != "healthy" {
			t.Fatalf("shard %d health %q", i, g.Health)
		}
		if g.SimNS <= 0 || g.Flushes <= 0 || g.Fences <= 0 {
			t.Fatalf("shard %d gauge empty: %+v", i, g)
		}
		ops += g.Ops
	}
	if ops != n {
		t.Fatalf("gauge ops sum = %d, want %d", ops, n)
	}
}

// TestLockWaitLedger: with a recorder set, every Wait is counted, and so is
// a follower whose handle another submitter's round served before it won
// the shard lock. Two handles queue on one shard; waiting on the second
// serves both in one round, so waiting on the first finds it served.
func TestLockWaitLedger(t *testing.T) {
	rec := obsv.New(obsv.Config{})
	cfg := testConfig(1, 8, 0)
	cfg.Recorder = rec
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var reqs [2]shard.Request
	var errs [2][1]error
	for i := range reqs {
		e.Enqueue(&reqs[i], 0, []shard.Op{{Kind: shard.OpPut, Key: key(i), Val: val(i)}}, errs[i][:], nil)
	}
	e.Wait(&reqs[1])
	e.Wait(&reqs[0])
	for i := range errs {
		if errs[i][0] != nil {
			t.Fatalf("put %d: %v", i, errs[i][0])
		}
	}
	s := rec.Snapshot()
	if s.LockWaits != 2 || s.LockWaitsServed != 1 {
		t.Fatalf("lock waits %d, served before the lock %d: want 2 and 1", s.LockWaits, s.LockWaitsServed)
	}
	if s.LockWaitNS < 0 {
		t.Fatalf("lock wait time %d ns", s.LockWaitNS)
	}
	if s.Batches != 1 {
		t.Fatalf("%d batches, want the two handles in one round", s.Batches)
	}
}
