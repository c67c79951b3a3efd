package game

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

func TestLStar(t *testing.T) {
	tests := []struct {
		wav, alpha, want float64
	}{
		{140630, 1.1, 140630 / 2.1},
		{1000, 1, 500},
		{1000, 3, 250},
	}
	for _, tt := range tests {
		got, err := LStar(tt.wav, tt.alpha)
		if err != nil {
			t.Fatalf("LStar(%v, %v): %v", tt.wav, tt.alpha, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("LStar(%v, %v) = %v, want %v", tt.wav, tt.alpha, got, tt.want)
		}
	}
}

func TestLStarRejectsBadInputs(t *testing.T) {
	for _, in := range [][2]float64{{0, 1}, {-1, 1}, {1, 0}, {1, -2}, {math.NaN(), 1}, {1, math.Inf(1)}} {
		if _, err := LStar(in[0], in[1]); !errors.Is(err, ErrInvalidModel) {
			t.Errorf("LStar(%v, %v) error = %v, want ErrInvalidModel", in[0], in[1], err)
		}
	}
}

// The paper's worked example (§4.4): w_av = 140630, α = 1.1 ⇒ (k, m) = (2, 17).
func TestPaperExampleReproducesKM(t *testing.T) {
	p, err := SelectParams(140630, 1.1)
	if err != nil {
		t.Fatalf("SelectParams: %v", err)
	}
	if p.K != 2 || p.M != 17 {
		t.Errorf("SelectParams = %v, want (k=2,m=17)", p)
	}
}

func TestParamsFor(t *testing.T) {
	tests := []struct {
		lstar   float64
		k       uint8
		wantM   uint8
		wantErr bool
	}{
		{140630 / 2.1, 2, 17, false},
		{140630 / 2.1, 1, 18, false},
		{128, 1, 8, false}, // 2^7 → m = 7+1
		{1, 1, 1, false},
		{math.Exp2(80), 1, 0, true}, // unattainable
		{0, 1, 0, true},
		{100, 0, 0, true},
	}
	for _, tt := range tests {
		p, err := ParamsFor(tt.lstar, tt.k, 64)
		if (err != nil) != tt.wantErr {
			t.Fatalf("ParamsFor(%v, %d) error = %v, wantErr %v", tt.lstar, tt.k, err, tt.wantErr)
		}
		if err == nil && p.M != tt.wantM {
			t.Errorf("ParamsFor(%v, %d) = %v, want m=%d", tt.lstar, tt.k, p, tt.wantM)
		}
	}
}

// TestParamsForRoundTripProperty pins the bit-rounding envelope
// SelectParams leans on: for any attainable target ℓ* ≥ k, the deployed
// difficulty k·2^(m−1) is never easier than ℓ* and never more than a
// factor of 2 harder (m rounds up to whole bits, so the parameters
// chosen for ℓ* land in [ℓ*, 2ℓ*)).
func TestParamsForRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		// Deterministic spread over ℓ* ∈ [k, 2^30) and k ∈ {1..4}.
		u := uint64(seed)
		u ^= u >> 33
		u *= 0xff51afd7ed558ccd
		u ^= u >> 33
		k := uint8(1 + u%4)
		exp := float64(u%3000) / 100.0 // 0..30 bits
		lstar := float64(k) * math.Exp2(exp)
		p, err := ParamsFor(lstar, k, puzzle.MaxPreimageBits)
		if err != nil {
			t.Logf("ParamsFor(%v, %d): %v", lstar, k, err)
			return false
		}
		work := p.ExpectedSolveHashes()
		if work < lstar || work >= 2*lstar {
			t.Logf("ParamsFor(%v, %d) deploys %v hashes, outside [ℓ*, 2ℓ*)", lstar, k, work)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParamsForRespectsPreimage(t *testing.T) {
	// m may not exceed l.
	if _, err := ParamsFor(math.Exp2(40), 1, 32); !errors.Is(err, ErrUnattainable) {
		t.Errorf("ParamsFor beyond l error = %v, want ErrUnattainable", err)
	}
}

func TestSelectParamsGuessBound(t *testing.T) {
	// For the paper example one solution would do, but (1, m) is guessed
	// with probability 2^−m, above the 2^−30 bound: the bound forces k=2.
	lstar, err := LStar(140630, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := ParamsFor(lstar, 1, puzzle.DefaultPreimageBits)
	if err != nil {
		t.Fatalf("ParamsFor(k=1): %v", err)
	}
	if one.GuessProbability() <= maxGuessProbability {
		t.Fatalf("k=1 candidate %v guessable at %g, want above the bound", one, one.GuessProbability())
	}
	p, err := SelectParams(140630, 1.1)
	if err != nil {
		t.Fatalf("SelectParams: %v", err)
	}
	if p.K != 2 || p.GuessProbability() > maxGuessProbability {
		t.Errorf("SelectParams = %v (guessable at %g), want k=2 within the bound", p, p.GuessProbability())
	}
}

func TestSelectParamsWellProvisionedIsEasier(t *testing.T) {
	weak, err := SelectParams(140630, 0.5)
	if err != nil {
		t.Fatalf("SelectParams(α=0.5): %v", err)
	}
	strong, err := SelectParams(140630, 8)
	if err != nil {
		t.Fatalf("SelectParams(α=8): %v", err)
	}
	if strong.ExpectedSolveHashes() >= weak.ExpectedSolveHashes() {
		t.Errorf("better provisioning yielded harder puzzles: α=8 %v vs α=0.5 %v", strong, weak)
	}
}

func TestRHat(t *testing.T) {
	got, err := RHat(1000, 10, 100)
	if err != nil {
		t.Fatalf("RHat: %v", err)
	}
	want := 100.0 - 1.0/10000
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("RHat = %v, want %v", got, want)
	}
	if _, err := RHat(0, 10, 100); !errors.Is(err, ErrInvalidModel) {
		t.Errorf("RHat(0,...) error = %v", err)
	}
}

// Property: ℓ* is increasing in w_av and decreasing in α — the central
// design tradeoff of §4.2.
func TestLStarMonotonicityProperty(t *testing.T) {
	f := func(w, a uint16) bool {
		wav := float64(w%10000) + 1
		alpha := float64(a%100)/10 + 0.1
		l1, err1 := LStar(wav, alpha)
		l2, err2 := LStar(wav*2, alpha)
		l3, err3 := LStar(wav, alpha*2)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return l2 > l1 && l3 < l1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestWavProfiles(t *testing.T) {
	// A device hashing at 351575 h/s affords 140630 hashes in 400 ms.
	got := WavFromHashRate(351575, DefaultHandshakeBudget)
	if math.Abs(got-140630) > 0.5 {
		t.Errorf("WavFromHashRate = %v, want 140630", got)
	}
	avg, err := WavAverage([]float64{100, 200, 300}, time.Second)
	if err != nil || avg != 200 {
		t.Errorf("WavAverage = %v, %v; want 200", avg, err)
	}
	if _, err := WavAverage(nil, time.Second); err == nil {
		t.Error("WavAverage(nil) succeeded")
	}
	if _, err := WavAverage([]float64{-1}, time.Second); err == nil {
		t.Error("WavAverage(-1) succeeded")
	}
}

func TestAlphaFromStress(t *testing.T) {
	points := []StressPoint{
		{Concurrent: 1000, ServiceRate: 1100},
		{Concurrent: 10, ServiceRate: 250},
		{Concurrent: 100, ServiceRate: 1050},
	}
	got, err := AlphaFromStress(points)
	if err != nil {
		t.Fatalf("AlphaFromStress: %v", err)
	}
	if math.Abs(got-1.1) > 1e-9 {
		t.Errorf("AlphaFromStress = %v, want 1.1", got)
	}
	if _, err := AlphaFromStress(nil); err == nil {
		t.Error("AlphaFromStress(nil) succeeded")
	}
	if _, err := Alpha(StressPoint{Concurrent: 0, ServiceRate: 1}); err == nil {
		t.Error("Alpha with zero concurrency succeeded")
	}
}

func TestProviderPayoff(t *testing.T) {
	p := puzzle.Params{K: 2, M: 4, L: 64}
	// ℓ = 16, g = 1, d = 2 ⇒ payoff at x=3 is (16−3)·3.
	if got := ProviderPayoff(p, 3); math.Abs(got-39) > 1e-9 {
		t.Errorf("ProviderPayoff = %v, want 39", got)
	}
}
