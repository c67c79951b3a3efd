package sweep

import (
	"math"
	"strings"
)

// FoldSeeds aggregates replicated designs: results of one experiment whose
// canonical scenarios compare equal up to the Seed (and any "seed=…" label
// part the Seeds axis appended) fold into one Result carrying, for every
// metric of the replicates, its mean, sample standard deviation, and the
// half-width of a two-sided Student-t 95% confidence interval on the mean
// (t · s/√n, n−1 degrees of freedom), plus a "replicates" count; series
// fold into their pointwise mean. Groups keep first-appearance order and
// unreplicated cells simply fold to themselves (stddev and ci95 0), so a
// grid without a Seeds axis passes through unchanged in shape. The folded
// Scenario carries Seed 0 — no single seed describes an aggregate — and
// the seed-stripped label. The true mean lies in mean ± ci95 at 95%
// coverage under the usual normality of replicate means; a ci95 that is
// wide relative to the effect being plotted is the signal to add seeds.
func FoldSeeds(results []Result) []Result {
	type group struct {
		out   Result
		n     float64
		sum   map[string]float64
		sumSq map[string]float64
		// seriesSum accumulates pointwise sums; seriesN counts per-point
		// contributions so replicates of different lengths average over
		// the replicates that actually reached each bucket.
		seriesSum map[string][]float64
		seriesN   map[string][]float64
	}
	type key struct {
		experiment string
		sc         Scenario
	}
	// Groups keep first-seen order; a NaN-rate key matches none, not even itself.
	var groups []*group
	index := map[key]*group{}

	for _, r := range results {
		k := key{r.Experiment, r.Scenario.replicate()}
		g, ok := index[k]
		if !ok {
			g = &group{
				out:       Result{Experiment: r.Experiment, Scenario: k.sc},
				sum:       map[string]float64{},
				sumSq:     map[string]float64{},
				seriesSum: map[string][]float64{},
				seriesN:   map[string][]float64{},
			}
			// Pin metric and series order from the first replicate.
			for _, m := range r.Metrics {
				g.out.Metrics = append(g.out.Metrics, Metric{Name: m.Name})
			}
			for _, s := range r.Series {
				g.out.Series = append(g.out.Series, Series{Name: s.Name})
			}
			index[k] = g
			groups = append(groups, g)
		}
		g.n++
		for _, m := range r.Metrics {
			g.sum[m.Name] += m.Value
			g.sumSq[m.Name] += m.Value * m.Value
		}
		for _, s := range r.Series {
			acc, cnt := g.seriesSum[s.Name], g.seriesN[s.Name]
			for i, v := range s.Values {
				if i >= len(acc) {
					acc = append(acc, 0)
					cnt = append(cnt, 0)
				}
				acc[i] += v
				cnt[i]++
			}
			g.seriesSum[s.Name], g.seriesN[s.Name] = acc, cnt
		}
	}

	out := make([]Result, 0, len(groups))
	for _, g := range groups {
		metrics := []Metric{{Name: "replicates", Value: g.n}}
		for _, m := range g.out.Metrics {
			mean := g.sum[m.Name] / g.n
			var stddev, ci95 float64
			if g.n > 1 {
				// Sample variance; clamp the tiny negatives float
				// cancellation can leave behind.
				v := (g.sumSq[m.Name] - g.n*mean*mean) / (g.n - 1)
				if v > 0 {
					stddev = math.Sqrt(v)
				}
				ci95 = tCritical95(int(g.n)-1) * stddev / math.Sqrt(g.n)
			}
			metrics = append(metrics,
				Metric{Name: m.Name + "_mean", Value: mean},
				Metric{Name: m.Name + "_stddev", Value: stddev},
				Metric{Name: m.Name + "_ci95", Value: ci95})
		}
		g.out.Metrics = metrics
		for i := range g.out.Series {
			name := g.out.Series[i].Name
			acc, cnt := g.seriesSum[name], g.seriesN[name]
			mean := make([]float64, len(acc))
			for j, v := range acc {
				mean[j] = v / cnt[j]
			}
			g.out.Series[i] = Series{Name: name + "_mean", Values: mean}
		}
		out = append(out, g.out)
	}
	return out
}

// tTable95 holds two-sided 95% Student-t critical values for 1–30 degrees
// of freedom (the replicate counts experiments actually run).
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom: exact table values through df=30, then the
// Cornish-Fisher-style tail correction t ≈ z + (z³+z)/(4·df) around the
// normal quantile — within ~3e-3 of the true value just past the table
// and under 1e-3 from df≈60 on, far tighter than any replicate count an
// experiment here would justify reading.
func tCritical95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	const z = 1.959963984540054 // Φ⁻¹(0.975)
	return z + (z*z*z+z)/(4*float64(df))
}

// stripSeedLabel removes the "seed=…" parts a Seeds axis appends to cell
// labels, so replicates share the folded label.
func stripSeedLabel(label string) string {
	parts := strings.Split(label, "/")
	kept := parts[:0]
	for _, part := range parts {
		if strings.HasPrefix(part, "seed=") {
			continue
		}
		kept = append(kept, part)
	}
	return strings.Join(kept, "/")
}

// ReplicateSink folds the Seeds axis on the way out: it buffers every
// Result and, on Flush, writes the FoldSeeds aggregation to the inner
// sink. Wrap any CSV/NDJSON/table sink to get mean/stddev rows instead of
// one row per seed (tcpz-exp -fold-seeds).
type ReplicateSink struct {
	inner Sink
	buf   []Result
}

// NewReplicate wraps a sink with seed folding.
func NewReplicate(inner Sink) *ReplicateSink {
	return &ReplicateSink{inner: inner}
}

// Write buffers the result until Flush folds the replicates.
func (s *ReplicateSink) Write(r Result) error {
	s.buf = append(s.buf, r)
	return nil
}

// Flush folds the buffered results, writes the aggregates to the inner
// sink, and flushes it.
func (s *ReplicateSink) Flush() error {
	folded := FoldSeeds(s.buf)
	s.buf = nil
	for _, r := range folded {
		if err := s.inner.Write(r); err != nil {
			return err
		}
	}
	return s.inner.Flush()
}
