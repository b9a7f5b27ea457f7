package main

import (
	"math"
	"time"
)

// nSlices is how many equal parts of the measured phase every wall-clock
// metric is computed over; the reported value is the median over them.
const nSlices = 10

// window is the measured phase: it tells a sample which slice it falls in.
type window struct {
	start time.Time
	each  time.Duration // length of one slice
}

func newWindow(seconds float64) window {
	return window{start: time.Now(), each: time.Duration(seconds * float64(time.Second) / nSlices)}
}

// slice returns the slice t falls in; nSlices means past the end.
func (w window) slice(t time.Time) int {
	i := int(t.Sub(w.start) / w.each)
	if i > nSlices {
		i = nSlices
	}
	return i
}

func (w window) end() time.Time { return w.start.Add(nSlices * w.each) }

// sliceRec collects one goroutine's samples per slice. Samples past the
// end of the window (a closed loop draining, an embedded workload finishing
// its fixed simulated-clock window on a slow box) land in the extra last
// element and stay out of the wall-clock metrics.
type sliceRec struct {
	lat [nSlices + 1]hist
	ops [nSlices + 1]int64
}

func (r *sliceRec) add(slice int, latNS int64, ops int64) {
	r.lat[slice].add(latNS)
	r.ops[slice] += ops
}

// cpuMarks holds the process CPU time at each slice boundary.
type cpuMarks [nSlices + 1]int64

// sample runs until the window ends, stamping each boundary. Server
// workloads run it beside the generator; embedded ones stamp inline.
func (c *cpuMarks) sample(w window) {
	for i := range c {
		time.Sleep(time.Until(w.start.Add(time.Duration(i) * w.each)))
		c[i] = cpuNS()
	}
}

// sliceOut is one slice as the clock read it, with the ruler's reading. A
// result file keeps them, so that the ruler itself can be checked, and the
// host.* layer metrics of a traced run are their medians.
type sliceOut struct {
	Thr  float64 `json:"throughput_raw_ops_s"`
	P50  float64 `json:"lat_p50_raw_us"`
	CPU  float64 `json:"cpu_raw_us_per_op"`
	Slow float64 `json:"ruler_slowdown"`
}

// wallMetrics reduces merged per-slice records to the wall-clock
// end-to-end metrics, each slice at the ruler's nominal speed (ruler.go).
// recs holds one record per generating goroutine: the time those spent in
// the ruler is taken out of the slice and of the CPU the slice used.
func wallMetrics(r *result, recs []*sliceRec, cpu *cpuMarks, w window, rul *rulerRec) {
	var thr, cpuOp, p50, p90 []float64
	for i := 0; i < nSlices; i++ {
		var h hist
		var ops int64
		for _, rec := range recs {
			h.merge(&rec.lat[i])
			ops += rec.ops[i]
		}
		if ops == 0 {
			continue
		}
		slow := rul.slowdown(i)
		by, latBy := math.Pow(slow, rulerFollow), math.Pow(slow, rulerFollowLatency)
		t := float64(ops) / (w.each.Seconds() - float64(rul.ns[i])/1e9/float64(len(recs)))
		c := float64(cpu[i+1]-cpu[i]-rul.ns[i]) / 1e3 / float64(ops)
		l50, l90 := h.quantile(0.50)/1e3, h.quantile(0.90)/1e3
		r.Slices = append(r.Slices, sliceOut{t, l50, c, slow})
		thr = append(thr, t*by)
		cpuOp = append(cpuOp, c/by)
		p50 = append(p50, l50/latBy)
		p90 = append(p90, l90/latBy)
	}
	r.e2e("throughput_ops_s", summarise(thr))
	r.e2e("cpu_us_per_op", summarise(cpuOp))
	r.e2e("lat_p50_us", summarise(p50))
	r.latP90 = summarise(p90).Median
}

// rawMedian is the median over the run's slices of one of the clock's own
// readings.
func (r *result) rawMedian(of func(sliceOut) float64) float64 {
	var xs []float64
	for _, s := range r.Slices {
		xs = append(xs, of(s))
	}
	return summarise(xs).Median
}
