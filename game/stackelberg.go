package game

import (
	"errors"
	"fmt"
	"math"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

var (
	// ErrInvalidModel reports nonsensical model parameters.
	ErrInvalidModel = errors.New("game: invalid model parameters")
	// ErrNoEquilibrium reports that no client equilibrium exists for the
	// requested difficulty (Eq. 10 violated).
	ErrNoEquilibrium = errors.New("game: no equilibrium for difficulty")
	// ErrUnattainable reports a target work level no (k, m) pair can meet.
	ErrUnattainable = errors.New("game: target difficulty unattainable")
)

// LStar returns the asymptotic Nash-equilibrium work level
// ℓ* = w_av / (α + 1) in expected hash operations per connection (Eq. 18).
func LStar(wav, alpha float64) (float64, error) {
	if wav <= 0 || math.IsNaN(wav) || math.IsInf(wav, 0) {
		return 0, fmt.Errorf("game: wav = %v: %w", wav, ErrInvalidModel)
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return 0, fmt.Errorf("game: alpha = %v: %w", alpha, ErrInvalidModel)
	}
	return wav / (alpha + 1), nil
}

// ParamsFor converts a target work level ℓ* into difficulty parameters for
// a fixed solution count k and preimage length l: the per-solution
// difficulty is rounded up to whole bits, m = ⌈log₂(ℓ*/k)⌉ + 1, so the
// deployed puzzle is never easier than the equilibrium demands.
func ParamsFor(lstar float64, k uint8, l uint8) (puzzle.Params, error) {
	if lstar <= 0 {
		return puzzle.Params{}, fmt.Errorf("game: lstar = %v: %w", lstar, ErrInvalidModel)
	}
	if k == 0 {
		return puzzle.Params{}, fmt.Errorf("game: k = 0: %w", ErrInvalidModel)
	}
	perSolution := lstar / float64(k)
	m := int(math.Ceil(math.Log2(perSolution))) + 1
	if m < puzzle.MinDifficultyBits {
		m = puzzle.MinDifficultyBits
	}
	if m > puzzle.MaxDifficultyBits || m > int(l) {
		return puzzle.Params{}, fmt.Errorf("game: need m=%d with k=%d, l=%d: %w",
			m, k, l, ErrUnattainable)
	}
	p := puzzle.Params{K: k, M: uint8(m), L: l}
	if err := p.Validate(); err != nil {
		return puzzle.Params{}, err
	}
	return p, nil
}

// maxGuessProbability bounds the chance an adversary blindly guesses a
// full solution set, 2^(−k·m). Small k trades verification cost against
// guessability (paper §4.3).
const maxGuessProbability = 0x1p-30

// SelectParams implements the practical method of §4.3/§4.4: given the
// measured w_av and α it computes ℓ* and picks the smallest k in 1…4
// whose guess probability is at most 2^−30 (minimising the server's
// 1 + k/2 verify cost), with m rounded up via ParamsFor and
// l = puzzle.DefaultPreimageBits.
//
// With the paper's measurements (w_av = 140630, α = 1.1) it returns
// (k, m) = (2, 17).
func SelectParams(wav, alpha float64) (puzzle.Params, error) {
	lstar, err := LStar(wav, alpha)
	if err != nil {
		return puzzle.Params{}, err
	}
	var lastErr error
	for k := uint8(1); k <= 4; k++ {
		p, err := ParamsFor(lstar, k, puzzle.DefaultPreimageBits)
		if err != nil {
			lastErr = err
			continue
		}
		if p.GuessProbability() > maxGuessProbability {
			lastErr = fmt.Errorf("game: k=%d m=%d guessable at %.3g: %w",
				p.K, p.M, p.GuessProbability(), ErrUnattainable)
			continue
		}
		return p, nil
	}
	return puzzle.Params{}, lastErr
}

// RHat returns the maximum difficulty for which the clients' game still
// admits an equilibrium, r̂ = w̄/N − 1/µ² (Eq. 10). Difficulties at or above
// r̂ drive every client out of the system.
func RHat(wbar float64, n int, mu float64) (float64, error) {
	if n <= 0 || wbar <= 0 || mu <= 0 {
		return 0, fmt.Errorf("game: wbar=%v n=%d mu=%v: %w", wbar, n, mu, ErrInvalidModel)
	}
	return wbar/float64(n) - 1/(mu*mu), nil
}
