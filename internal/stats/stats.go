// Package stats provides the measurement primitives the experiment harness
// uses in place of tcpdump post-processing: bucketed time series, CDFs, box
// statistics and rate estimators.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series accumulates values into fixed-width time buckets, e.g. bytes per
// second for throughput plots.
type Series struct {
	bucket time.Duration
	vals   []float64
}

// NewSeries returns a Series with the given bucket width.
func NewSeries(bucket time.Duration) *Series {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &Series{bucket: bucket}
}

// Bucket returns the configured bucket width.
func (s *Series) Bucket() time.Duration { return s.bucket }

// Add accumulates v into the bucket containing at. Negative times are
// clamped to the first bucket.
func (s *Series) Add(at time.Duration, v float64) {
	idx := int(at / s.bucket)
	if idx < 0 {
		idx = 0
	}
	for len(s.vals) <= idx {
		s.vals = append(s.vals, 0)
	}
	s.vals[idx] += v
}

// AddSpan spreads v uniformly over [from, to) across the buckets it covers.
// It is used for busy-time accounting (CPU utilisation).
func (s *Series) AddSpan(from, to time.Duration, v float64) {
	if to <= from {
		return
	}
	total := to - from
	for t := from; t < to; {
		end := (t/s.bucket + 1) * s.bucket
		if end > to {
			end = to
		}
		s.Add(t, v*(float64(end-t)/float64(total)))
		t = end
	}
}

// Values returns a copy of the bucket values, padded with zeros out to the
// bucket containing until.
func (s *Series) Values(until time.Duration) []float64 {
	n := int(until/s.bucket) + 1
	out := make([]float64, n)
	copy(out, s.vals)
	return out
}

// Sum returns the total across all buckets.
func (s *Series) Sum() float64 {
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum
}

// SumRange returns the total over buckets intersecting [from, to).
func (s *Series) SumRange(from, to time.Duration) float64 {
	lo := int(from / s.bucket)
	hi := int((to + s.bucket - 1) / s.bucket)
	var sum float64
	for i := lo; i < hi && i < len(s.vals); i++ {
		if i >= 0 {
			sum += s.vals[i]
		}
	}
	return sum
}

// RatePerSecond converts bucket totals into per-second rates.
func (s *Series) RatePerSecond(until time.Duration) []float64 {
	vals := s.Values(until)
	scale := float64(time.Second) / float64(s.bucket)
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * scale
	}
	return out
}

// Mbps converts bucket byte totals into megabits per second.
func (s *Series) Mbps(until time.Duration) []float64 {
	rates := s.RatePerSecond(until)
	for i := range rates {
		rates[i] = rates[i] * 8 / 1e6
	}
	return rates
}

// Gauge records a piecewise-constant quantity over time (queue lengths)
// for resampling at a fixed period. It keeps one value per period, not one
// per change: sample k, at time k·period, is the value of the last Set at
// or before that instant, so every Set in (k-1)·period, k·period] writes
// sample k and only the last of them survives.
type Gauge struct {
	period time.Duration
	// vals holds the settled samples 0 … len(vals)-1; cur is the value of
	// the latest Set, the one every later sample reads until the next.
	vals   []float64
	cur    float64
	lastAt time.Duration
}

// NewGauge returns a Gauge sampled at the given period.
func NewGauge(period time.Duration) *Gauge {
	if period <= 0 {
		period = time.Second
	}
	return &Gauge{period: period, lastAt: math.MinInt64}
}

// Set records that the gauge took value v at time at. Times must be
// non-decreasing; out-of-order samples are dropped.
func (g *Gauge) Set(at time.Duration, v float64) {
	if at < g.lastAt {
		return
	}
	g.lastAt = at
	// Samples before k = ⌈at/period⌉ lie before at: they settle on the
	// value in effect until now.
	k := 0
	if at > 0 {
		k = int((at + g.period - 1) / g.period)
	}
	for len(g.vals) < k {
		g.vals = append(g.vals, g.cur)
	}
	g.cur = v
}

// Sampled returns the gauge sampled at its period over [0, until): zero
// before the first Set.
func (g *Gauge) Sampled(until time.Duration) []float64 {
	var out []float64
	for t := time.Duration(0); t < until; t += g.period {
		if k := len(out); k < len(g.vals) {
			out = append(out, g.vals[k])
		} else {
			out = append(out, g.cur)
		}
	}
	return out
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns the empirical fraction of samples ≤ x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by nearest-rank.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Box summarises a sample for box plots.
type Box struct {
	N                int
	Mean, Std        float64
	Min, Q1, Med, Q3 float64
	Max              float64
}

// BoxOf computes box statistics over samples.
func BoxOf(samples []float64) Box {
	if len(samples) == 0 {
		nan := math.NaN()
		return Box{Mean: nan, Std: nan, Min: nan, Q1: nan, Med: nan, Q3: nan, Max: nan}
	}
	c := NewCDF(samples)
	var b Box
	b.N = len(samples)
	b.Mean = c.Mean()
	var ss float64
	for _, v := range samples {
		d := v - b.Mean
		ss += d * d
	}
	b.Std = math.Sqrt(ss / float64(len(samples)))
	b.Min = c.sorted[0]
	b.Max = c.sorted[len(c.sorted)-1]
	b.Q1 = c.Quantile(0.25)
	b.Med = c.Quantile(0.5)
	b.Q3 = c.Quantile(0.75)
	return b
}

// String renders the box as "mean=… std=… [min q1 med q3 max]".
func (b Box) String() string {
	return fmt.Sprintf("mean=%.3f std=%.3f [%.3f %.3f %.3f %.3f %.3f] n=%d",
		b.Mean, b.Std, b.Min, b.Q1, b.Med, b.Q3, b.Max, b.N)
}

// MeanStd returns mean and population standard deviation of samples.
func MeanStd(samples []float64) (mean, std float64) {
	b := BoxOf(samples)
	return b.Mean, b.Std
}
