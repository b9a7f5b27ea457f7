// Package obsv is the runtime observability layer: lock-free log-bucketed
// latency histograms (wall-clock and simulated ns), commit-path event
// tracing (per-transaction clflush / fence / HTM / log-append /
// checkpoint counts), group-commit batch-size and queue-depth
// distributions, and a slow-op log — all allocation-free on the hot path
// and safe for concurrent writers — plus the fixed-width tables the
// figure harness prints (table.go).
//
// The package deliberately imports nothing from the rest of the repo. The
// simulated machine already counts every architectural event
// (pmem.Stats, htm.Stats, the schemes' commit counters); the facade
// bridges those counters into Counters snapshots and this package only
// observes the *deltas* — events are counted once, where they happen.
package obsv

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the histogram bucket count: one per power of two, which
// covers the full int64 range. Bucket 0 holds values ≤ 0; bucket b ≥ 1
// holds [2^(b-1), 2^b - 1].
const NumBuckets = 64

// bucketOf maps a value to its log2 bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > NumBuckets-1 {
		return NumBuckets - 1
	}
	return b
}

// BucketLower returns bucket b's smallest representable value.
func BucketLower(b int) int64 {
	if b <= 0 {
		return 0
	}
	return int64(1) << (b - 1)
}

// BucketUpper returns bucket b's largest representable value.
func BucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<b - 1
}

// Histogram is a lock-free log-bucketed distribution. Observe is wait-free
// (two atomic adds) and allocation-free; concurrent writers merge by
// construction. The zero value is ready to use.
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's current state. The copy is not a
// consistent point-in-time cut under concurrent writers, but every
// observation lands in exactly one snapshot eventually — good enough for
// monitoring, and exact once writers quiesce.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for b := range h.counts {
		c := h.counts[b].Load()
		s.Counts[b] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is an immutable histogram state: mergeable across shards
// (or processes) and queryable for quantiles.
type HistSnapshot struct {
	Counts [NumBuckets]int64 `json:"-"`
	Count  int64             `json:"count"`
	Sum    int64             `json:"sum"`
}

// Mean returns the exact mean of the observed values (the sum is tracked
// exactly; only the distribution is bucketed). An empty snapshot is 0.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]), linearly
// interpolated within the winning bucket. An empty snapshot returns 0.
// The estimate's error is bounded by the bucket width (a factor of 2).
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// 1-based rank of the target observation.
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b := range s.Counts {
		c := s.Counts[b]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := BucketLower(b), BucketUpper(b)
			// Position of the target within this bucket, in (0, 1].
			frac := float64(rank-cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	// Unreachable when Count matches Counts; be defensive.
	return BucketUpper(NumBuckets - 1)
}
