package mm1

import (
	"errors"
	"math"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/game"
)

func TestSojournTime(t *testing.T) {
	got, err := SojournTime(10, 5)
	if err != nil {
		t.Fatalf("SojournTime: %v", err)
	}
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("SojournTime = %v, want 0.2", got)
	}
	if _, err := SojournTime(10, 10); !errors.Is(err, ErrUnstable) {
		t.Errorf("saturated error = %v, want ErrUnstable", err)
	}
}

func TestQueueLength(t *testing.T) {
	got, err := QueueLength(10, 5)
	if err != nil {
		t.Fatalf("QueueLength: %v", err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("QueueLength = %v, want 1", got)
	}
	if _, err := QueueLength(1, 2); !errors.Is(err, ErrUnstable) {
		t.Errorf("unstable error = %v", err)
	}
}

// Little's law ties the two analytic quantities: L = λ·S for every stable
// queue, and both refuse the same unstable ones.
func TestLittlesLaw(t *testing.T) {
	for _, c := range []struct{ mu, lambda float64 }{
		{10, 5}, {100, 1}, {1100, 1099}, {1, 0.25}, {1e6, 3e5},
	} {
		s, err := SojournTime(c.mu, c.lambda)
		if err != nil {
			t.Fatalf("SojournTime(%v, %v): %v", c.mu, c.lambda, err)
		}
		l, err := QueueLength(c.mu, c.lambda)
		if err != nil {
			t.Fatalf("QueueLength(%v, %v): %v", c.mu, c.lambda, err)
		}
		if math.Abs(l-c.lambda*s) > 1e-9*l {
			t.Errorf("µ=%v λ=%v: L = %v, λ·S = %v", c.mu, c.lambda, l, c.lambda*s)
		}
	}
	for _, lambda := range []float64{10, 11} {
		_, errS := SojournTime(10, lambda)
		_, errL := QueueLength(10, lambda)
		if !errors.Is(errS, ErrUnstable) || !errors.Is(errL, ErrUnstable) {
			t.Errorf("λ=%v µ=10: SojournTime error %v, QueueLength error %v; want ErrUnstable", lambda, errS, errL)
		}
	}
}

func TestStressThroughputRampAndPlateau(t *testing.T) {
	cfg := PaperStress()
	low := cfg.Throughput(1)
	mid := cfg.Throughput(50)
	high := cfg.Throughput(1000)
	if !(low < mid && mid <= high) {
		t.Errorf("throughput not ramping: %v, %v, %v", low, mid, high)
	}
	if high != cfg.ServiceRate {
		t.Errorf("plateau = %v, want µ=%v", high, cfg.ServiceRate)
	}
}

// Fig. 3b: the paper's stress test converges to α = 1.1 at high load.
func TestPaperStressAlphaConverges(t *testing.T) {
	cfg := PaperStress()
	points := cfg.Sweep([]int{1, 10, 50, 100, 200, 400, 600, 800, 1000})
	alpha, err := game.AlphaFromStress(points)
	if err != nil {
		t.Fatalf("AlphaFromStress: %v", err)
	}
	if math.Abs(alpha-1.1) > 0.01 {
		t.Errorf("α = %v, want ≈ 1.1", alpha)
	}
}
