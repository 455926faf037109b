package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one slow job, not a percentile.
const minBeyond = 10

// reportedPercentiles are the percentiles the report considers, highest
// first.
var reportedPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the nearest-rank position (1-based) of percentile p among n
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// supported reports whether n samples leave at least minBeyond of them
// above percentile p.
func supported(p float64, n int) bool {
	return n > 0 && n-rank(p, n) >= minBeyond
}

// highestPercentile returns the highest of reportedPercentiles that n
// samples support, and false when they support none.
func highestPercentile(n int) (float64, bool) {
	for _, p := range reportedPercentiles {
		if supported(p, n) {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs. It does not
// reorder xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median is the middle value of xs, averaging the middle pair when the
// count is even. It does not reorder xs.
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

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// unionWithin returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once: the part of a parent span that its
// (possibly concurrent) children account for.
func unionWithin(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var covered, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		if iv.lo > end {
			end = iv.lo
		}
		covered += iv.hi - end
		end = iv.hi
	}
	return covered
}

// selfTime is a span's duration minus the union of its children's
// intervals within it.
func selfTime(lo, hi int64, children []interval) int64 {
	return (hi - lo) - unionWithin(lo, hi, children)
}
