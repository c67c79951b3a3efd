package game

import (
	"math"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// ServiceTime returns the expected M/M/1 sojourn time S(x̄) = 1/(µ − x̄)
// (paper §4.1). It returns +Inf when the server is saturated (x̄ ≥ µ).
func ServiceTime(mu, xbar float64) float64 {
	if xbar >= mu {
		return math.Inf(1)
	}
	return 1 / (mu - xbar)
}

// Utility evaluates a client's utility (Eq. 4):
//
//	u = w·log(1 + x) − ℓ·x − 1/(µ − x̄)
//
// where x is the client's own rate and xbar the total system rate
// (including x).
func Utility(w, x, xbar, l, mu float64) float64 {
	return w*math.Log(1+x) - l*x - ServiceTime(mu, xbar)
}

// ProviderPayoff evaluates the provider's objective term for one client at
// rate x (Eq. 5): (ℓ(p) − g(p) − d(p))·x.
func ProviderPayoff(p puzzle.Params, x float64) float64 {
	return (p.ExpectedSolveHashes() - p.GenerateHashes() - p.ExpectedVerifyHashes()) * x
}

// BestResponse returns a client's best-response rate to the other clients'
// total rate xOthers under difficulty ℓ, found by maximising the strictly
// concave utility over x ∈ [0, µ − xOthers) with golden-section search.
// It returns 0 when participation is not profitable.
func BestResponse(w, xOthers, l, mu float64) float64 {
	if xOthers >= mu {
		return 0
	}
	b := mu - xOthers - 1e-12*mu
	if b <= 0 {
		return 0
	}
	u := func(x float64) float64 { return Utility(w, x, xOthers+x, l, mu) }
	x := goldenMax(u, 0, b, 1e-12*mu, 200)
	if u(x) < u(0) {
		return 0
	}
	return x
}

// goldenMax maximises a strictly concave f on [a, b] by golden-section
// search: it narrows the bracket until it is at most tol wide or maxIter
// steps have run, and returns the bracket's midpoint.
func goldenMax(f func(float64) float64, a, b, tol float64, maxIter int) float64 {
	const phi = 1.618033988749894848
	c := b - (b-a)/phi
	d := a + (b-a)/phi
	for i := 0; i < maxIter && b-a > tol; i++ {
		if f(c) > f(d) {
			b = d
		} else {
			a = c
		}
		c = b - (b-a)/phi
		d = a + (b-a)/phi
	}
	return (a + b) / 2
}
