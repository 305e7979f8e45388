package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q < 1) of raw samples by the
// nearest-rank rule, and whether at least minBeyond samples lie above it.
// Results come from the raw samples, never from histogram buckets.
func percentile(samples []time.Duration, q float64, minBeyond int) (time.Duration, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := rankOf(q, len(s))
	return s[rank], len(s)-1-rank >= minBeyond
}

// rankOf is the nearest-rank index of the q-quantile among n sorted samples.
func rankOf(q float64, n int) int {
	return max(0, min(int(math.Ceil(q*float64(n)))-1, n-1))
}

// minBeyond is how many samples must lie beyond a reported end-to-end
// percentile.
const minBeyond = 10

// minSamplesFor is the smallest sample count that supports the q-quantile
// with minBeyond samples beyond it.
func minSamplesFor(q float64) int {
	n := 1
	for n-1-rankOf(q, n) < minBeyond {
		n++
	}
	return n
}

// interval is a half-open time interval in Unix nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of parent the union of children covers; each
// child is clipped to parent, and overlapping children count once.
func covered(parent interval, children []interval) int64 {
	var iv []interval
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total, curS, curE int64
	for i, c := range iv {
		if i == 0 || c.start > curE {
			total += curE - curS
			curS, curE = c.start, c.end
			continue
		}
		curE = max(curE, c.end)
	}
	return total + curE - curS
}

// selfTime is a span's duration minus the time its children cover; never
// negative.
func selfTime(parent interval, children []interval) time.Duration {
	return time.Duration(parent.end - parent.start - covered(parent, children))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
