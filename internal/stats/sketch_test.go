package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sketchCase is one distribution the P² estimator is differentially
// tested against the exact CDF on. Bound is the allowed absolute error as
// a fraction of the distribution's span (max-min): the documented error
// envelope for that input shape. The bounds are pinned from observed
// error plus margin — they are regression walls, not theoretical limits
// (P² has no distribution-free guarantee).
type sketchCase struct {
	name    string
	samples []float64
	bound   float64
}

func sketchCases() []sketchCase {
	rnd := rand.New(rand.NewSource(42))
	const n = 10_000

	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rnd.Float64() * 1000
	}

	// Bimodal: two well-separated normal-ish humps, the shape of a
	// connection-time distribution under an on/off pulse attack.
	bimodal := make([]float64, n)
	for i := range bimodal {
		center := 100.0
		if rnd.Intn(2) == 1 {
			center = 900.0
		}
		bimodal[i] = center + rnd.NormFloat64()*30
	}

	// Adversarial ordering: the same uniform sample sorted ascending —
	// the worst case for P², whose markers chase a moving front and lag
	// most when every observation lands in the top cell.
	adversarial := make([]float64, n)
	copy(adversarial, uniform)
	sort.Float64s(adversarial)

	return []sketchCase{
		{"uniform", uniform, 0.01},
		{"bimodal", bimodal, 0.05},
		{"adversarial-sorted", adversarial, 0.05},
	}
}

// TestP2AgainstExactCDF is the sketch's differential oracle: the P²
// estimate for each target quantile must land within the case's pinned
// error envelope of the exact nearest-rank quantile.
func TestP2AgainstExactCDF(t *testing.T) {
	for _, tc := range sketchCases() {
		exact := NewCDF(tc.samples)
		span := exact.Quantile(1) - exact.Quantile(0)
		for _, q := range []float64{0.10, 0.50, 0.90} {
			p := NewP2Quantile(q)
			for _, x := range tc.samples {
				p.Observe(x)
			}
			got, want := p.Value(), exact.Quantile(q)
			err := math.Abs(got-want) / span
			t.Logf("%s q=%.2f: p2=%.2f exact=%.2f err=%.4f of span", tc.name, q, got, want, err)
			if err > tc.bound {
				t.Errorf("%s q=%.2f: error %.4f of span exceeds pinned bound %.4f (p2=%v exact=%v)",
					tc.name, q, err, tc.bound, got, want)
			}
		}
	}
}

// TestP2ExactBelowFiveSamples pins the small-stream contract: with fewer
// than five observations the estimator IS the exact nearest-rank
// quantile, so tiny cells lose nothing by using the sketch.
func TestP2ExactBelowFiveSamples(t *testing.T) {
	samples := []float64{7, 3, 9, 1}
	for n := 1; n <= len(samples); n++ {
		exact := NewCDF(samples[:n])
		for _, q := range []float64{0.10, 0.50, 0.90} {
			p := NewP2Quantile(q)
			for _, x := range samples[:n] {
				p.Observe(x)
			}
			if got, want := p.Value(), exact.Quantile(q); got != want {
				t.Errorf("n=%d q=%.2f: got %v, want exact %v", n, q, got, want)
			}
		}
	}
	if !math.IsNaN(NewP2Quantile(0.5).Value()) {
		t.Error("empty estimator should return NaN")
	}
}

// TestSummarySketchBundles checks the composite: exact count/mean/
// extremes, quantile routing, and NaN for unregistered quantiles.
func TestSummarySketchBundles(t *testing.T) {
	s := NewSummarySketch(0.10, 0.50, 0.90)
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i))
	}
	if s.Count() != 1000 {
		t.Errorf("Count = %d", s.Count())
	}
	if got := s.Mean(); got != 500.5 {
		t.Errorf("Mean = %v, want 500.5", got)
	}
	if s.Min() != 1 || s.Max() != 1000 {
		t.Errorf("extremes = [%v, %v], want [1, 1000]", s.Min(), s.Max())
	}
	if got := s.Quantile(0.50); math.Abs(got-500) > 25 {
		t.Errorf("Quantile(0.5) = %v, want ≈500", got)
	}
	if !math.IsNaN(s.Quantile(0.25)) {
		t.Error("unregistered quantile should return NaN")
	}
}
