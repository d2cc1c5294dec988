package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for it to
// count as measured: p99 needs at least 1000 samples, p95 at least 200.
const minBeyond = 10

// Sample is a set of measurements in one unit, kept whole so that any
// percentile can be taken from it.
type Sample []float64

// Quantile returns the nearest-rank p-th percentile (0 < p < 100) and
// whether it is resolved: at least minBeyond samples lie beyond it, above
// it for p >= 50 and below it for a low percentile. An unresolved tail is
// reported as such, never as a number.
func (s Sample) Quantile(p float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	sorted := append(Sample(nil), s...)
	sort.Float64s(sorted)
	rank := nearestRank(len(sorted), p)
	return sorted[rank-1], resolved(len(sorted), p)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// resolved reports whether the p-th percentile of n samples has at least
// minBeyond samples beyond it.
func resolved(n int, p float64) bool {
	if n == 0 {
		return false
	}
	rank := nearestRank(n, p)
	if p < 50 {
		return rank-1 >= minBeyond
	}
	return n-rank >= minBeyond
}

// needed is the fewest samples that resolve the p-th percentile.
func needed(p float64) int {
	n := 1
	for !resolved(n, p) {
		n++
	}
	return n
}

// HighestResolved is the highest whole percentile the sample resolves, or
// 0 when even the median has fewer than minBeyond samples above it.
func (s Sample) HighestResolved() float64 {
	for p := 99.0; p >= 50; p-- {
		if _, ok := s.Quantile(p); ok {
			return p
		}
	}
	return 0
}

// Median is the 50th percentile, whether or not it is resolved.
func (s Sample) Median() float64 {
	v, _ := s.Quantile(50)
	return v
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by ivs after clipping each to
// [lo, hi); overlapping intervals count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curS, curE = iv.start, iv.end
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if len(clipped) > 0 {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals within it.
func selfTime(span interval, children []interval) time.Duration {
	return time.Duration(span.end - span.start - unionLen(children, span.start, span.end))
}
