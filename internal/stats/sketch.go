package stats

import (
	"math"
	"sort"
)

// P2Quantile is the Jain & Chlamtac P² streaming quantile estimator: five
// markers track the running minimum, maximum, target quantile, and the
// two midpoints, adjusted per observation by a piecewise-parabolic
// interpolation. O(1) state and O(1) per observation, so million-sample
// metric streams cost 40 words instead of a retained sample slice. Exact
// for the first five observations (nearest-rank); an approximation after.
// The exact CDF remains the oracle — see the differential tests for the
// observed error envelope (≲1% of the distribution span on smooth inputs,
// a few percent under adversarial ordering).
type P2Quantile struct {
	q     float64    // target quantile in (0, 1)
	h     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based observation ranks)
	want  [5]float64 // desired marker positions
	dwant [5]float64 // desired-position increments per observation
	n     int        // observations seen
}

// NewP2Quantile returns an estimator for the q-th quantile, 0 < q < 1.
func NewP2Quantile(q float64) *P2Quantile {
	p := &P2Quantile{q: q}
	p.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.dwant = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Q returns the target quantile.
func (p *P2Quantile) Q() float64 { return p.q }

// Count returns the number of observations.
func (p *P2Quantile) Count() int { return p.n }

// Observe feeds one sample.
func (p *P2Quantile) Observe(x float64) {
	if p.n < 5 {
		p.h[p.n] = x
		p.n++
		if p.n == 5 {
			sort.Float64s(p.h[:])
			p.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	p.n++

	// Locate the cell and update the extremes.
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x >= p.h[4]:
		p.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := 0; i < 5; i++ {
		p.want[i] += p.dwant[i]
	}

	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := math.Copysign(1, d)
			h := p.parabolic(i, s)
			if p.h[i-1] < h && h < p.h[i+1] {
				p.h[i] = h
			} else {
				p.h[i] = p.linear(i, s)
			}
			p.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (p *P2Quantile) parabolic(i int, d float64) float64 {
	return p.h[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.h[i+1]-p.h[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.h[i]-p.h[i-1])/(p.pos[i]-p.pos[i-1]))
}

// linear is the fallback when the parabolic prediction is not monotone.
func (p *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.h[i] + d*(p.h[j]-p.h[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current estimate: the middle marker, or the exact
// nearest-rank quantile while fewer than five samples have been seen.
// NaN before any observation.
func (p *P2Quantile) Value() float64 {
	if p.n == 0 {
		return math.NaN()
	}
	if p.n < 5 {
		s := make([]float64, p.n)
		copy(s, p.h[:p.n])
		sort.Float64s(s)
		idx := int(math.Ceil(p.q*float64(p.n))) - 1
		if idx < 0 {
			idx = 0
		}
		return s[idx]
	}
	return p.h[2]
}

// SummarySketch bundles the streaming statistics the figure drivers need
// from a sample distribution — count, mean, extremes, and a fixed set of
// P² quantile estimates — in O(1) memory. It is the drop-in replacement
// for retaining every sample and building an exact CDF.
type SummarySketch struct {
	count     int
	sum       float64
	min, max  float64
	quantiles []*P2Quantile
}

// NewSummarySketch returns a sketch estimating the given quantiles.
func NewSummarySketch(qs ...float64) *SummarySketch {
	s := &SummarySketch{min: math.Inf(1), max: math.Inf(-1)}
	for _, q := range qs {
		s.quantiles = append(s.quantiles, NewP2Quantile(q))
	}
	return s
}

// Observe feeds one sample.
func (s *SummarySketch) Observe(x float64) {
	s.count++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	for _, p := range s.quantiles {
		p.Observe(x)
	}
}

// Count returns the number of observations.
func (s *SummarySketch) Count() int { return s.count }

// Mean returns the running mean (exact), NaN before any observation.
func (s *SummarySketch) Mean() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.count)
}

// Min and Max return the exact extremes, ±Inf before any observation.
func (s *SummarySketch) Min() float64 { return s.min }

// Max returns the exact maximum observed.
func (s *SummarySketch) Max() float64 { return s.max }

// Quantile returns the estimate for q, which must be one of the
// quantiles the sketch was constructed with; NaN otherwise.
func (s *SummarySketch) Quantile(q float64) float64 {
	for _, p := range s.quantiles {
		if p.Q() == q {
			return p.Value()
		}
	}
	return math.NaN()
}
