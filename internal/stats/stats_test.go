package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesAddAndValues(t *testing.T) {
	s := NewSeries(time.Second)
	s.Add(0, 1)
	s.Add(500*time.Millisecond, 2)
	s.Add(1500*time.Millisecond, 4)
	s.Add(-time.Second, 8) // clamped to bucket 0
	got := s.Values(2 * time.Second)
	want := []float64{11, 4, 0}
	if len(got) != len(want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSeriesAddRun: a run add is n single Adds, bit for bit, for whole
// values — on a bucket edge, across buckets, with a gap longer than a
// bucket, for one instant, for negative times, and over random runs.
func TestSeriesAddRun(t *testing.T) {
	const ms = time.Millisecond
	type run struct {
		at, gap time.Duration
		n       int
		v       float64
	}
	check := func(name string, bucket time.Duration, runs ...run) {
		t.Helper()
		got, want := NewSeries(bucket), NewSeries(bucket)
		for _, r := range runs {
			got.AddRun(r.at, r.gap, r.n, r.v)
			for k := 0; k < r.n; k++ {
				want.Add(r.at+time.Duration(k)*r.gap, r.v)
			}
		}
		if !slices.EqualFunc(got.vals, want.vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s: AddRun gives %v, n Adds give %v", name, got.vals, want.vals)
		}
	}
	check("a leg on a bucket edge", ms, run{999 * time.Microsecond, time.Microsecond, 3, 1488})
	check("a run from a bucket edge", ms, run{2 * ms, 250 * time.Microsecond, 9, 1488})
	check("a gap longer than a bucket", ms, run{300 * time.Microsecond, 2500 * time.Microsecond, 5, 1488})
	check("one leg", ms, run{7 * ms, 0, 1, 1488})
	check("one instant", ms, run{7 * ms, 0, 4, 1488})
	check("negative times", ms, run{-1500 * time.Microsecond, ms, 4, 40})
	check("a response", 100*ms, run{4 * ms, 11904, 40, 3}, run{99 * ms, 119040, 68, 1488})
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		runs := make([]run, 1+rnd.Intn(4))
		for j := range runs {
			runs[j] = run{
				at:  time.Duration(rnd.Int63n(int64(50 * ms))),
				gap: time.Duration(rnd.Int63n(int64(3 * ms))),
				n:   1 + rnd.Intn(70),
				v:   float64(rnd.Intn(1 << 20)),
			}
		}
		check(fmt.Sprintf("random %d %+v", i, runs), time.Duration(1+rnd.Int63n(int64(5*ms))), runs...)
	}
}

func TestSeriesRates(t *testing.T) {
	s := NewSeries(500 * time.Millisecond)
	s.Add(0, 100) // 100 in half a second → 200/s
	rates := s.RatePerSecond(500 * time.Millisecond)
	if rates[0] != 200 {
		t.Errorf("rate = %v, want 200", rates[0])
	}
	// 1e6 bytes in one bucket of 0.5s → 2e6 B/s → 16 Mbps.
	b := NewSeries(500 * time.Millisecond)
	b.Add(0, 1e6)
	if got := b.Mbps(500 * time.Millisecond)[0]; math.Abs(got-16) > 1e-9 {
		t.Errorf("Mbps = %v, want 16", got)
	}
}

func TestSeriesAddSpan(t *testing.T) {
	s := NewSeries(time.Second)
	// 3 units of busy time spread across [0.5s, 3.5s): 1/6 in each of the
	// partial end buckets, 1/3 in the two full middle buckets.
	s.AddSpan(500*time.Millisecond, 3500*time.Millisecond, 3)
	got := s.Values(4 * time.Second)
	want := []float64{0.5, 1, 1, 0.5, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	if math.Abs(s.Sum()-3) > 1e-9 {
		t.Errorf("Sum = %v, want 3", s.Sum())
	}
}

func TestSeriesSumRange(t *testing.T) {
	s := NewSeries(time.Second)
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, 1)
	}
	if got := s.SumRange(2*time.Second, 5*time.Second); got != 3 {
		t.Errorf("SumRange = %v, want 3", got)
	}
	if got := s.SumRange(0, 100*time.Second); got != 10 {
		t.Errorf("SumRange(all) = %v, want 10", got)
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge(time.Second)
	g.Set(time.Second, 5)
	g.Set(3*time.Second, 2)
	g.Set(2*time.Second, 99) // out of order: dropped
	got := g.Sampled(4 * time.Second)
	want := []float64{0, 5, 5, 2}
	if !slices.Equal(got, want) {
		t.Errorf("Sampled = %v, want %v", got, want)
	}
}

// logGauge is the Gauge as it was before it kept one value per period: a
// log of every (time, value) change, read back by binary search. It is
// the oracle the differential test holds Gauge to.
type logGauge struct {
	times []time.Duration
	vals  []float64
}

func (g *logGauge) Set(at time.Duration, v float64) {
	if n := len(g.times); n > 0 && at < g.times[n-1] {
		return
	}
	g.times = append(g.times, at)
	g.vals = append(g.vals, v)
}

func (g *logGauge) at(at time.Duration) float64 {
	idx := sort.Search(len(g.times), func(i int) bool { return g.times[i] > at })
	if idx == 0 {
		return 0
	}
	return g.vals[idx-1]
}

func (g *logGauge) Sampled(period, until time.Duration) []float64 {
	var out []float64
	for t := time.Duration(0); t < until; t += period {
		out = append(out, g.at(t))
	}
	return out
}

// TestGaugeMatchesChangeLog holds Gauge to the full change log on
// hand-picked edges — equal times, out-of-order sets, sets exactly on a
// period boundary and just either side of one, sets after until — and on
// random streams drawn from those same instants.
func TestGaugeMatchesChangeLog(t *testing.T) {
	const period = 250 * time.Millisecond
	type set struct {
		at time.Duration
		v  float64
	}
	check := func(name string, sets []set) {
		t.Helper()
		g, oracle := NewGauge(period), &logGauge{}
		for _, s := range sets {
			g.Set(s.at, s.v)
			oracle.Set(s.at, s.v)
		}
		for _, until := range []time.Duration{0, 1, period, period + 1, 3 * period, 3*period + 1, 10 * period} {
			got, want := g.Sampled(until), oracle.Sampled(period, until)
			if !slices.Equal(got, want) {
				t.Errorf("%s: Sampled(%v) = %v, change log gives %v", name, until, got, want)
			}
		}
	}
	check("empty", nil)
	check("equal times", []set{{period, 1}, {period, 2}, {period, 3}, {2 * period, 4}, {2 * period, 5}})
	check("out of order", []set{{2 * period, 1}, {period, 9}, {2*period - 1, 9}, {2 * period, 2}, {3 * period, 3}})
	check("on boundaries", []set{{0, 1}, {period, 2}, {2 * period, 3}, {3 * period, 4}})
	check("either side of a boundary", []set{{period - 1, 1}, {period, 2}, {period + 1, 3}, {3*period - 1, 4}, {3*period + 1, 5}})
	check("gaps", []set{{period / 2, 1}, {5*period + 7, 2}, {9 * period, 3}})
	check("after until", []set{{period, 1}, {20 * period, 2}, {20 * period, 3}, {40*period + 1, 4}})

	rnd := rand.New(rand.NewSource(1))
	for i := range 500 {
		var sets []set
		at := time.Duration(0)
		for range rnd.Intn(30) {
			switch rnd.Intn(4) {
			case 0: // equal time
			case 1: // out of order
				at -= time.Duration(rnd.Intn(3)) * period / 2
			case 2: // onto the next boundary or just off it
				at = (at/period+1)*period + time.Duration(rnd.Intn(3)-1)
			default:
				at += time.Duration(rnd.Int63n(int64(3 * period)))
			}
			at = max(at, 0)
			sets = append(sets, set{at, float64(rnd.Intn(8))})
		}
		check(fmt.Sprintf("random stream %d", i), sets)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{4, 1, 3, 2})
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4", got)
	}
	if got := c.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if got := c.At(1); got != 0 {
		t.Errorf("empty At = %v", got)
	}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) {
		t.Error("empty quantile/mean not NaN")
	}
}

func TestBoxOf(t *testing.T) {
	b := BoxOf([]float64{1, 2, 3, 4, 5})
	if b.Mean != 3 || b.Min != 1 || b.Max != 5 || b.Med != 3 {
		t.Errorf("BoxOf = %+v", b)
	}
	if math.Abs(b.Std-math.Sqrt(2)) > 1e-9 {
		t.Errorf("Std = %v, want √2", b.Std)
	}
	if b.N != 5 {
		t.Errorf("N = %d", b.N)
	}
	empty := BoxOf(nil)
	if !math.IsNaN(empty.Mean) {
		t.Error("empty box mean not NaN")
	}
}

// Property: a CDF is monotone non-decreasing and bounded in [0, 1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(samples []float64, a, b float64) bool {
		c := NewCDF(samples)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		fa, fb := c.At(lo), c.At(hi)
		return fa >= 0 && fb <= 1 && fa <= fb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Series.AddSpan conserves mass.
func TestAddSpanConservesMass(t *testing.T) {
	f := func(fromMs, spanMs uint16, v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		s := NewSeries(time.Second)
		from := time.Duration(fromMs) * time.Millisecond
		to := from + time.Duration(spanMs%5000+1)*time.Millisecond
		s.AddSpan(from, to, v)
		return math.Abs(s.Sum()-v) <= 1e-6*math.Abs(v)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
