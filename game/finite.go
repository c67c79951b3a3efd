package game

import (
	"fmt"
	"math"
)

// FiniteGame is the N-player followers' game of §3.2 with heterogeneous
// valuations, solved numerically (Appendix A).
type FiniteGame struct {
	// Weights are the per-client valuations w_i (hashes a client is willing
	// to pay per request).
	Weights []float64
	// Mu is the server's M/M/1 service rate in requests per second.
	Mu float64
}

// Validate reports whether the game is well formed.
func (g FiniteGame) Validate() error {
	if len(g.Weights) == 0 {
		return fmt.Errorf("game: no clients: %w", ErrInvalidModel)
	}
	for i, w := range g.Weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("game: weight %d = %v: %w", i, w, ErrInvalidModel)
		}
	}
	if g.Mu <= 0 || math.IsNaN(g.Mu) || math.IsInf(g.Mu, 0) {
		return fmt.Errorf("game: mu = %v: %w", g.Mu, ErrInvalidModel)
	}
	return nil
}

// N returns the number of clients.
func (g FiniteGame) N() int { return len(g.Weights) }

// WBar returns the total valuation w̄ = Σ w_i.
func (g FiniteGame) WBar() float64 {
	var sum float64
	for _, w := range g.Weights {
		sum += w
	}
	return sum
}

// Wav returns the average valuation w̄/N.
func (g FiniteGame) Wav() float64 { return g.WBar() / float64(g.N()) }

// RHat returns the existence bound of Eq. 10 for this game.
func (g FiniteGame) RHat() (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	return RHat(g.WBar(), g.N(), g.Mu)
}

// lTilde evaluates L̃(ȳ) = w̄/ȳ − ℓ − 1/(µ+N−ȳ)² (Eq. 9), which is strictly
// decreasing on [N, N+µ).
func (g FiniteGame) lTilde(ybar, l float64) float64 {
	n := float64(g.N())
	d := g.Mu + n - ybar
	return g.WBar()/ybar - l - 1/(d*d)
}

// EquilibriumYBar solves L̃(ȳ) = 0 for a fixed difficulty ℓ by bisection on
// [N, N+µ). It fails with ErrNoEquilibrium when ℓ ≥ r̂.
func (g FiniteGame) EquilibriumYBar(l float64) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if l < 0 {
		return 0, fmt.Errorf("game: difficulty %v: %w", l, ErrInvalidModel)
	}
	n := float64(g.N())
	lo, hi := n, n+g.Mu
	if g.lTilde(lo, l) <= 0 {
		return 0, fmt.Errorf("game: L̃(N) = %v ≤ 0 at ℓ=%v: %w", g.lTilde(lo, l), l, ErrNoEquilibrium)
	}
	// L̃ → −∞ as ȳ → N+µ: shrink hi until the sign flips, then bisect.
	for g.lTilde(hi-1e-12*(hi-lo), l) > 0 {
		hi += g.Mu // cannot happen mathematically; guard against FP edge
		if hi > n+2*g.Mu {
			return 0, fmt.Errorf("game: bisection bracket failed: %w", ErrNoEquilibrium)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if g.lTilde(mid, l) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// EquilibriumRates returns the per-client Nash rates x_i* for a fixed
// difficulty ℓ: y_i = w_i·ȳ/w̄ and x_i = y_i − 1 (Appendix A). Rates are
// clamped at zero for clients priced out of the game.
func (g FiniteGame) EquilibriumRates(l float64) ([]float64, error) {
	ybar, err := g.EquilibriumYBar(l)
	if err != nil {
		return nil, err
	}
	wbar := g.WBar()
	rates := make([]float64, g.N())
	for i, w := range g.Weights {
		x := w*ybar/wbar - 1
		if x < 0 {
			x = 0
		}
		rates[i] = x
	}
	return rates, nil
}

// TotalRate returns the aggregate equilibrium rate x̄ = ȳ − N for a fixed
// difficulty.
func (g FiniteGame) TotalRate(l float64) (float64, error) {
	ybar, err := g.EquilibriumYBar(l)
	if err != nil {
		return 0, err
	}
	return ybar - float64(g.N()), nil
}

// providerObjective evaluates G(ȳ) = (w̄/ȳ − 1/(µ+N−ȳ)²)(ȳ−N) (Eq. 14).
func (g FiniteGame) providerObjective(ybar float64) float64 {
	n := float64(g.N())
	d := g.Mu + n - ybar
	return (g.WBar()/ybar - 1/(d*d)) * (ybar - n)
}

// OptimalYBar maximises the strictly concave G on (N, N+µ) by
// golden-section search.
func (g FiniteGame) OptimalYBar() (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	n := float64(g.N())
	eps := 1e-9 * g.Mu
	return goldenMax(g.providerObjective, n+eps, n+g.Mu-eps, 1e-12*(n+g.Mu), 300), nil
}

// OptimalDifficulty returns the provider's Stackelberg-optimal work level
// ℓ* for the finite game: the difficulty that induces the revenue-optimal
// aggregate rate, ℓ* = w̄/ȳ* − 1/(µ+N−ȳ*)² (Eq. 9 inverted at ȳ*).
func (g FiniteGame) OptimalDifficulty() (float64, error) {
	ystar, err := g.OptimalYBar()
	if err != nil {
		return 0, err
	}
	l := g.lTilde(ystar, 0)
	if l <= 0 {
		return 0, fmt.Errorf("game: degenerate optimum ℓ=%v: %w", l, ErrNoEquilibrium)
	}
	return l, nil
}

// UniformGame builds a FiniteGame with N identical clients of valuation w.
func UniformGame(n int, w, mu float64) FiniteGame {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = w
	}
	return FiniteGame{Weights: weights, Mu: mu}
}
