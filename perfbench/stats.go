package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples and
// whether at least minBeyond samples lie beyond it. samples must be sorted.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minBeyond
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// dist summarizes one latency sample: count, median and p99.
type dist struct {
	n        int
	p50, p99 float64
	p99ok    bool // at least minBeyond samples beyond the p99
	segments int  // segmented: how many segments p50 and p99 are medians of
}

func (d dist) note() string {
	if d.segments > 1 {
		return fmt.Sprintf("(n=%d, median of %d segments)", d.n, d.segments)
	}
	return fmt.Sprintf("(n=%d)", d.n)
}

func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{n: len(s)}
	d.p50, _ = percentile(s, 0.5)
	d.p99, d.p99ok = percentile(s, 0.99)
	return d
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// maxSegments bounds how many segments a timed phase's percentiles are
// medians of.
const maxSegments = 10

// segmented summarizes one op's latencies (lat, in ms) by segments of
// completion order (at holds each sample's completion offset): the samples
// are cut into as many segments of equal count as leave each segment
// enough samples for its own p99 (100*minBeyond), up to maxSegments, and
// p50 and p99 are the medians of the segments' p50s and p99s. A stall of
// the host that slows one segment then moves them less than it moves the
// percentiles of the whole sample. With too few samples for two segments
// it is summarize.
func segmented(at, lat []float64) dist {
	n := len(lat)
	k := min(maxSegments, n/(100*minBeyond))
	if k < 2 {
		return summarize(lat)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return at[order[a]] < at[order[b]] })
	var p50s, p99s []float64
	for i := 0; i < k; i++ {
		seg := make([]float64, 0, n/k+1)
		for _, j := range order[i*n/k : (i+1)*n/k] {
			seg = append(seg, lat[j])
		}
		d := summarize(seg)
		p50s = append(p50s, d.p50)
		p99s = append(p99s, d.p99)
	}
	return dist{n: n, p50: median(p50s), p99: median(p99s), p99ok: true, segments: k}
}

// segmentRates splits a phase's completions, given as offsets in seconds
// from the phase start, into n segments of equal request count and returns
// each segment's rate: its requests over the time from the previous
// segment's last completion (the phase start for the first) to its own.
func segmentRates(ends []float64, n int) []float64 {
	s := append([]float64(nil), ends...)
	sort.Float64s(s)
	var rates []float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		lo, hi := (i-1)*len(s)/n, i*len(s)/n
		if hi == lo || s[hi-1] <= prev {
			continue
		}
		rates = append(rates, float64(hi-lo)/(s[hi-1]-prev))
		prev = s[hi-1]
	}
	return rates
}
