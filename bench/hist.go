package main

import (
	"math/bits"
	"sort"
)

// hist is the benchmark's own latency histogram: log-linear buckets with
// 128 steps per power of two, so a reported quantile is within 0.4 % of the
// sample it stands for. Fixed size, no allocation after construction, and
// mergeable — one per (goroutine, slice, op type), merged at report time.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 36 // values clamp at 2^36 ns ≈ 69 s
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	if v >= 1<<histMaxExp {
		v = 1<<histMaxExp - 1
	}
	e := bits.Len64(uint64(v)) - 1 // histSubBits <= e < histMaxExp
	return (e-histSubBits+1)*histSub + int(v>>(e-histSubBits))&(histSub-1)
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub + histSubBits - 1
	lo := int64(1)<<e + int64(i%histSub)<<(e-histSubBits)
	return float64(lo) + float64(int64(1)<<(e-histSubBits))/2
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in the histogram's unit (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n)) + 1
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// summary is a median with its inter-quartile range and sample count: how
// every wall-clock metric is reported (median over the run's slices).
type summary struct {
	Median float64
	IQR    float64
	N      int
}

// summarise takes the median and inter-quartile range (Q3−Q1, quartiles
// interpolated linearly between the sorted values) of xs.
func summarise(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return summary{Median: at(0.5), IQR: at(0.75) - at(0.25), N: len(s)}
}
