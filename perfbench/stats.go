package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples a reported percentile must leave above
// it: a tail figure resting on fewer is noise, so the run refuses it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples. It fails when fewer than minBeyond samples lie beyond that
// rank, so a run too short for its tail percentile cannot report it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", p*100)
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs (mean of the two middles for even counts),
// 0 for no samples. Medians of a handful of repetitions (set-up times,
// probe timings) use this; request latencies go through percentile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// dist is a timing distribution as the benchmark reports it: the median,
// one tail percentile and the sample count behind both.
type dist struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	Tail float64 `json:"tail"`
	P    float64 `json:"tail_p"`
}

// summarize reports the median and the p tail of xs, enforcing the
// samples-beyond rule on both.
func summarize(xs []float64, p float64) (dist, error) {
	s := sortedCopy(xs)
	p50, err := percentile(s, 0.5)
	if err != nil {
		return dist{}, err
	}
	tail, err := percentile(s, p)
	if err != nil {
		return dist{}, err
	}
	return dist{N: len(s), P50: p50, Tail: tail, P: p}, nil
}

// slope is the least-squares slope of y against x, 0 when x does not vary.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// maxSlices is how many consecutive slices a closed loop's qps and p50
// are taken over. Each is the median of the slices' values, so one stall
// (a GC cycle, a busy neighbour on the host) moves one slice, not the
// result.
const maxSlices = 9

// The p99 is read from its own, finer slices of at least 1000 completions
// (ten samples beyond each slice's p99), up to maxTailSlices of them, at
// their lower quartile. A busy neighbour on the host adds milliseconds to
// the tail of sub-millisecond requests for seconds at a time, often over
// more than half of a run's slices, while a change to the program moves
// every slice's tail.
const (
	maxTailSlices = 30
	quietTail     = 0.25
)

// loadFigures are a closed loop's throughput and latency read from
// consecutive slices of its completions, plus the whole run's
// distribution.
type loadFigures struct {
	Slices     int       `json:"slices"`
	TailSlices int       `json:"tail_slices"`
	QPS        float64   `json:"qps"`
	P50        float64   `json:"p50_ms"`
	P99        float64   `json:"p99_ms"`
	All        dist      `json:"all"`
	SliceP99s  []float64 `json:"slice_p99_ms"`
}

// sliceLoad computes loadFigures from completion times (since the loop
// started) and round-trip times in milliseconds, given in completion
// order.
func sliceLoad(done []time.Duration, ms []float64) (loadFigures, error) {
	var f loadFigures
	all, err := summarize(ms, 0.99)
	if err != nil {
		return f, err
	}
	f.All = all
	f.Slices = min(maxSlices, len(ms)/1000)
	f.TailSlices = min(maxTailSlices, len(ms)/1000)
	if f.Slices < 1 {
		return f, fmt.Errorf("%d samples cannot fill one slice of 1000", len(ms))
	}
	var qps, p50s []float64
	var start time.Duration
	for i := 0; i < f.Slices; i++ {
		lo, hi := i*len(ms)/f.Slices, (i+1)*len(ms)/f.Slices
		p50s = append(p50s, median(ms[lo:hi]))
		end := done[hi-1]
		qps = append(qps, float64(hi-lo)/(end-start).Seconds())
		start = end
	}
	for i := 0; i < f.TailSlices; i++ {
		lo, hi := i*len(ms)/f.TailSlices, (i+1)*len(ms)/f.TailSlices
		d, err := summarize(ms[lo:hi], 0.99)
		if err != nil {
			return f, err
		}
		f.SliceP99s = append(f.SliceP99s, d.Tail)
	}
	f.QPS, f.P50, f.P99 = median(qps), median(p50s), quantile(f.SliceP99s, quietTail)
	return f, nil
}

// quantile is the q-quantile of xs, interpolated linearly between the
// closest ranks, 0 for no values. It reads a figure across slices, not
// samples, so the samples-beyond rule of percentile does not apply.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
