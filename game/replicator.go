package game

import "fmt"

// ReplicatorStep advances one discrete round of replicator dynamics: each
// strategy's share grows in proportion to its payoff relative to the
// population-average payoff,
//
//	xᵢ' = xᵢ · sᵢ / Σⱼ xⱼ sⱼ
//
// where sᵢ is payoffs[i] shifted so the worst strategy scores zero plus a
// 10% baseline of the payoff spread (the affine shift leaves the dynamics'
// fixed points unchanged but keeps the discrete map well defined for
// negative or zero payoffs). A floor ∈ [0, 1/n) then mixes the result with
// the uniform distribution, xᵢ″ = floor + (1 − n·floor)·xᵢ', guaranteeing
// every strategy keeps at least the floor share — the exploration mass an
// online learner needs so a temporarily useless arm can recover.
//
// The step is a pure function of its arguments: equal inputs produce equal
// outputs bit for bit, which is what lets adaptive strategies built on it
// stay deterministic however their bots are batched.
//
// Shares must be a probability vector (non-negative, summing to 1 within
// 1e-6); equal payoffs leave shares unchanged apart from the floor mix.
func ReplicatorStep(shares, payoffs []float64, floor float64) ([]float64, error) {
	n := len(shares)
	if n == 0 || len(payoffs) != n {
		return nil, fmt.Errorf("game: %d shares, %d payoffs: %w", n, len(payoffs), ErrInvalidModel)
	}
	if floor < 0 || floor >= 1/float64(n) {
		return nil, fmt.Errorf("game: floor %v with %d strategies: %w", floor, n, ErrInvalidModel)
	}
	var total float64
	for _, x := range shares {
		if x < 0 {
			return nil, fmt.Errorf("game: negative share %v: %w", x, ErrInvalidModel)
		}
		total += x
	}
	if total < 1-1e-6 || total > 1+1e-6 {
		return nil, fmt.Errorf("game: shares sum to %v: %w", total, ErrInvalidModel)
	}

	min, max := payoffs[0], payoffs[0]
	for _, f := range payoffs[1:] {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	// Baseline keeps the denominator positive when every strategy ties at
	// the minimum; proportional to the spread so the selection pressure is
	// scale invariant, and 1 when there is no spread at all (pure floor mix).
	baseline := 0.1 * (max - min)
	if baseline == 0 {
		baseline = 1
	}
	next := make([]float64, n)
	var mean float64
	for i, x := range shares {
		next[i] = x * (payoffs[i] - min + baseline)
		mean += next[i]
	}
	for i := range next {
		next[i] = floor + (1-float64(n)*floor)*(next[i]/mean)
	}
	return next, nil
}

// UniformShares returns the uniform probability vector over n strategies —
// the canonical replicator starting point.
func UniformShares(n int) []float64 {
	shares := make([]float64, n)
	for i := range shares {
		shares[i] = 1 / float64(n)
	}
	return shares
}
