package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without modifying it.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ascending samples by
// linear interpolation between the two nearest ranks; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the 0.5-quantile of xs (any order).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tail names an upper-tail percentile by the share of samples that lie
// beyond it: denom 100 is p99 (one sample in a hundred above). Integer
// shares keep the rank arithmetic exact, which 99.9/100*n is not.
type tail struct {
	name  string
	denom int
}

// tails is the percentile ladder, lowest first.
var tails = []tail{
	{"p50", 2}, {"p75", 4}, {"p90", 10}, {"p99", 100}, {"p99.9", 1000}, {"p99.99", 10000},
}

// beyond is how many of n samples lie strictly above the percentile.
func (t tail) beyond(n int) int { return n / t.denom }

// of returns the exact (nearest-rank) percentile of ascending samples:
// the largest sample that still has beyond(n) samples above it.
func (t tail) of(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-t.beyond(len(sorted))-1]
}

// highestTail returns the highest percentile of the ladder that has at
// least ten samples beyond it — the highest one n samples can support.
// ok is false when even the median has fewer than ten.
func highestTail(n int) (t tail, ok bool) {
	for _, c := range tails {
		if c.beyond(n) < 10 {
			break
		}
		t, ok = c, true
	}
	return t, ok
}

// allFinite reports whether every value is a finite number.
func allFinite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
