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

	errs := enqueueAll(e, []shard.Op{
		{Kind: shard.OpPut, Key: key(3), Val: val(3)},
		{Kind: shard.OpPut, Key: key(4), Val: val(4)},
	})
	for i, err := range errs {
		if !errors.Is(err, shard.ErrClosed) {
			t.Fatalf("Enqueue[%d] after Close = %v, want ErrClosed", i, err)
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
