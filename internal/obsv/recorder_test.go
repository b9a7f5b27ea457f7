package obsv

import (
	"reflect"
	"testing"
	"time"
)

// TestCountersVecCoversEveryField keeps the one place that enumerates the
// Counters fields (vec / countersOf, and eventNames beside them) in step with
// the struct: a field added to one and not the others would silently vanish
// from Sub, Add, the recorder's totals and the exposition.
func TestCountersVecCoversEveryField(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	if v.NumField() != numEvents {
		t.Fatalf("Counters has %d fields, numEvents = %d", v.NumField(), numEvents)
	}
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	for i, got := range c.vec() {
		if got != int64(i+1) {
			t.Fatalf("vec()[%d] = %d: not field %s", i, got, v.Type().Field(i).Name)
		}
		if tag := v.Type().Field(i).Tag.Get("json"); tag != eventNames[i] {
			t.Fatalf("field %s is %q in JSON and %q in the exposition", v.Type().Field(i).Name, tag, eventNames[i])
		}
	}
	if countersOf(c.vec()) != c || c.Add(c).Sub(c) != c {
		t.Fatal("countersOf(vec) or Add/Sub loses a field")
	}
}

func TestRecorderBasics(t *testing.T) {
	r := New(Config{SampleEvery: 1, SlowOpNS: int64(time.Hour)})
	ev0 := Counters{}
	ev1 := Counters{Flush: 3, Fence: 2, LogAppend: 1}
	sp := r.Begin(100, ev0)
	if !sp.on {
		t.Fatal("span from live recorder inactive")
	}
	r.EndBatch(sp, 0, 1, 400, ev1)

	// A read: no event delta, no commit-path hists.
	r.ObserveWall(OpGet, 0, 50)
	r.ObserveSim(OpGet, 70)

	s := r.Snapshot()
	if got := s.OpStats(OpBatch); got.Count != 1 {
		t.Fatalf("batch count = %d", got.Count)
	}
	if got := s.OpStats(OpBatch).SimP50NS; got < 256 || got > 511 {
		t.Fatalf("batch sim p50 = %d, want within bucket of 300", got)
	}
	if got := s.OpStats(OpGet); got.Count != 1 || got.SimP50NS < 64 || got.SimP50NS > 127 {
		t.Fatalf("get stats = %+v, want one op in the bucket of 70 ns", got)
	}
	if s.Events != ev1 {
		t.Fatalf("events = %+v, want %+v", s.Events, ev1)
	}
	// Reads must not touch the per-txn commit-path distributions.
	if s.FlushPer.Count != 1 || s.FencePer.Count != 1 {
		t.Fatalf("per-txn hists polluted by reads: flush=%d fence=%d",
			s.FlushPer.Count, s.FencePer.Count)
	}
	// ObserveWall samples only slow ops.
	if samples := r.TraceSamples(); len(samples) != 1 {
		t.Fatalf("SampleEvery=1 captured %d samples, want 1", len(samples))
	}
}

func TestRecorderBatchAndSlow(t *testing.T) {
	r := New(Config{SampleEvery: 1 << 30, SlowOpNS: 1}) // everything is slow
	sp := r.Begin(0, Counters{})
	simD := r.EndBatch(sp, 2, 8, 5000, Counters{Flush: 10, Fence: 6})
	if simD != 5000 {
		t.Fatalf("EndBatch simD = %d", simD)
	}
	r.ObserveMailDepth(3)
	s := r.Snapshot()
	if s.Batches != 1 || s.BatchSize.Count != 1 || s.MailDepth.Count != 1 {
		t.Fatalf("batch accounting: %+v", s)
	}
	if s.BatchSize.Quantile(0.5) < 8 || s.BatchSize.Quantile(0.5) > 15 {
		t.Fatalf("batch size p50 = %d, want in bucket of 8", s.BatchSize.Quantile(0.5))
	}
	if s.SlowOps != 1 {
		t.Fatalf("slow ops = %d, want 1 (threshold 1ns)", s.SlowOps)
	}
	slow := r.SlowSamples()
	if len(slow) != 1 || !slow[0].Slow || slow[0].Op != "batch" || slow[0].Ops != 8 {
		t.Fatalf("slow ring = %+v", slow)
	}
}

func TestRecorderRingWraps(t *testing.T) {
	r := New(Config{SampleEvery: 1, RingSize: 4, SlowOpNS: int64(time.Hour)})
	for i := 0; i < 10; i++ {
		sp := r.Begin(int64(i), Counters{})
		r.EndBatch(sp, 0, 1, int64(i+1), Counters{})
	}
	samples := r.TraceSamples()
	if len(samples) != 4 {
		t.Fatalf("ring returned %d samples, want 4", len(samples))
	}
	// Oldest-first: the last 4 of 10 sequence numbers.
	for i := 1; i < len(samples); i++ {
		if samples[i].Seq != samples[i-1].Seq+1 {
			t.Fatalf("ring out of order: %+v", samples)
		}
	}
	if samples[len(samples)-1].Seq != 10 {
		t.Fatalf("newest seq = %d, want 10", samples[len(samples)-1].Seq)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	sp := r.Begin(0, Counters{})
	if sp.on {
		t.Fatal("nil recorder produced active span")
	}
	if d := r.EndBatch(sp, 0, 4, 100, Counters{}); d != 0 {
		t.Fatalf("nil EndBatch = %d", d)
	}
	r.ObserveWall(OpPut, 0, 1)
	r.ObserveSim(OpPut, 1)
	r.ObserveMailDepth(1)
	if s := r.Snapshot(); len(s.Ops) != 0 || s.Seen != 0 {
		t.Fatalf("nil Snapshot = %+v", s)
	}
	if r.TraceSamples() != nil || r.SlowSamples() != nil {
		t.Fatal("nil rings not nil")
	}
}

// TestHotPathZeroAllocs is the allocation proof: the full instrumented
// span path — Begin, EndBatch with event deltas, sampling *every*
// batch into the trace ring — performs zero heap allocations, as do
// the auxiliary observe entry points and the disabled (nil) recorder.
func TestHotPathZeroAllocs(t *testing.T) {
	r := New(Config{SampleEvery: 1, SlowOpNS: 1}) // worst case: sample + slow-log every op
	ev := Counters{Flush: 2, Fence: 1}
	if n := testing.AllocsPerRun(1000, func() {
		sp := r.Begin(0, Counters{})
		r.EndBatch(sp, 1, 16, 100, ev)
	}); n != 0 {
		t.Errorf("batch path: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.ObserveWall(OpPut, 0, 5)
		r.ObserveSim(OpPut, 5)
		r.ObserveMailDepth(2)
	}); n != 0 {
		t.Errorf("observe path: %v allocs/op, want 0", n)
	}
	var off *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		sp := off.Begin(0, Counters{})
		off.EndBatch(sp, 0, 1, 0, Counters{})
		off.ObserveWall(OpGet, 0, 1)
	}); n != 0 {
		t.Errorf("disabled path: %v allocs/op, want 0", n)
	}
}
