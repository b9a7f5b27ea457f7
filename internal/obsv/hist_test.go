package obsv

import (
	"math"
	"testing"
)

func TestBucketBounds(t *testing.T) {
	// Every value must land in a bucket whose [lower, upper] range holds it.
	vals := []int64{-5, 0, 1, 2, 3, 4, 7, 8, 100, 1023, 1024, 1 << 40, math.MaxInt64}
	for _, v := range vals {
		b := bucketOf(v)
		lo, hi := BucketLower(b), BucketUpper(b)
		want := v
		if want < 0 {
			want = 0
		}
		if want < lo || want > hi {
			t.Errorf("value %d -> bucket %d [%d, %d]: out of range", v, b, lo, hi)
		}
	}
	if bucketOf(0) != 0 || bucketOf(-1) != 0 {
		t.Error("non-positive values must land in bucket 0")
	}
	if b := bucketOf(math.MaxInt64); b != NumBuckets-1 {
		t.Errorf("MaxInt64 in bucket %d, want %d", b, NumBuckets-1)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s HistSnapshot
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %d, want 0", q, got)
		}
	}
	if s.Mean() != 0 {
		t.Errorf("empty Mean = %g, want 0", s.Mean())
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	// All observations identical: every quantile must stay inside the one
	// occupied bucket, and the mean is exact.
	var h Histogram
	const v = 300 // bucket [256, 511]
	for i := 0; i < 1000; i++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 300_000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	if m := s.Mean(); m != v {
		t.Errorf("Mean = %g, want %d (sum is tracked exactly)", m, int64(v))
	}
	lo, hi := BucketLower(bucketOf(v)), BucketUpper(bucketOf(v))
	for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
		got := s.Quantile(q)
		if got < lo || got > hi {
			t.Errorf("Quantile(%g) = %d, outside bucket [%d, %d]", q, got, lo, hi)
		}
	}
}

func TestQuantileMonotonicAndBounded(t *testing.T) {
	// A spread of values: quantiles must be monotone in q and each estimate
	// within a factor of 2 of the true order statistic (bucket width bound).
	var h Histogram
	for v := int64(1); v <= 10000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	prev := int64(-1)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		got := s.Quantile(q)
		if got < prev {
			t.Errorf("Quantile(%g) = %d < previous %d: not monotone", q, got, prev)
		}
		prev = got
		truth := int64(math.Ceil(q * 10000))
		if got < truth/2 || got > truth*2 {
			t.Errorf("Quantile(%g) = %d, true value %d: outside 2x bound", q, got, truth)
		}
	}
	// Clamping: out-of-range q values behave as 0 and 1.
	if s.Quantile(-1) != s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Error("out-of-range q not clamped")
	}
}
