package puzzle

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// SolveStats reports accounting detail from a solve.
type SolveStats struct {
	// Hashes is the number of hash operations performed across all k
	// solutions. Each search stops at its first candidate with m zero
	// bits, so under Solver.Rand its mean is k·2^m, as for
	// SampleSolveHashes: twice Params.ExpectedSolveHashes.
	Hashes uint64
}

// Solve brute-forces a challenge with no hash budget and no cancellation,
// scanning candidates from a fixed origin. For rate-limited or cancellable
// solving use a Solver.
func Solve(ch Challenge) (Solution, SolveStats, error) {
	var s Solver
	return s.Solve(context.Background(), ch)
}

// Solver brute-forces challenges. The zero value searches deterministically
// from candidate zero with an unlimited budget.
type Solver struct {
	// MaxHashes bounds the total hash operations spent on one challenge;
	// zero means unlimited. When the budget runs out Solve returns
	// ErrBudgetExhausted.
	MaxHashes uint64
	// Rand, when non-nil, randomises the starting candidate for each
	// solution index so that repeated solves of the same challenge do
	// different work (and so the hash count follows the true geometric
	// distribution rather than the fixed scan order).
	Rand *rand.Rand
}

// Solve finds the k solutions to ch. It checks ctx between candidates and
// returns ctx.Err if cancelled.
func (sv *Solver) Solve(ctx context.Context, ch Challenge) (Solution, SolveStats, error) {
	var stats SolveStats
	if err := ch.Params.Validate(); err != nil {
		return Solution{}, stats, err
	}
	if len(ch.Preimage) != ch.Params.SolutionBytes() {
		return Solution{}, stats, fmt.Errorf("puzzle: preimage %d bytes, want %d: %w",
			len(ch.Preimage), ch.Params.SolutionBytes(), ErrWrongLength)
	}
	sol := Solution{
		Params:    ch.Params,
		Timestamp: ch.Timestamp,
		Solutions: make([][]byte, 0, ch.Params.K),
	}
	solBytes := ch.Params.SolutionBytes()
	for i := uint8(1); i <= ch.Params.K; i++ {
		var start uint64
		if sv.Rand != nil {
			start = sv.Rand.Uint64()
		}
		s, n, err := sv.solveOne(ctx, ch, i, start, solBytes, stats.Hashes)
		stats.Hashes += n
		if err != nil {
			return Solution{}, stats, err
		}
		sol.Solutions = append(sol.Solutions, s)
	}
	return sol, stats, nil
}

// solveOne searches for a single solution with index i starting at candidate
// counter start. spent is the budget already consumed by earlier indices.
func (sv *Solver) solveOne(
	ctx context.Context,
	ch Challenge,
	index uint8,
	start uint64,
	solBytes int,
	spent uint64,
) (solution []byte, hashes uint64, err error) {
	candidate := make([]byte, solBytes)
	const checkEvery = 1 << 12
	for n := uint64(0); ; n++ {
		if n%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, n, err
			}
		}
		if sv.MaxHashes > 0 && spent+n >= sv.MaxHashes {
			return nil, n, fmt.Errorf("puzzle: %d hashes spent: %w", spent+n, ErrBudgetExhausted)
		}
		encodeCandidate(candidate, start+n)
		if SolutionValid(ch.Preimage, ch.Params, index, candidate) {
			out := make([]byte, solBytes)
			copy(out, candidate)
			return out, n + 1, nil
		}
	}
}

// encodeCandidate writes counter c into buf (little-endian, truncated or
// zero-padded to len(buf)).
func encodeCandidate(buf []byte, c uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], c)
	n := copy(buf, tmp[:])
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
}

// SampleSolveHashes samples the number of hash operations a solve would
// take, without hashing: the sum of k independent geometric random variables
// with success probability 2^-m. The simulator uses this to charge solve
// time to a modelled CPU instead of burning host cycles.
func SampleSolveHashes(rnd *rand.Rand, p Params) uint64 {
	if p.M == 0 {
		return uint64(p.K) // every candidate succeeds; no draw
	}
	logMiss := logMissTable[min(int(p.M), MaxDifficultyBits)]
	var total uint64
	for i := 0; i < int(p.K); i++ {
		total += sampleGeometric(rnd, logMiss)
	}
	return total
}

// logMissTable[m] is log(1 − 2^−m), the log-probability that one
// candidate misses an m-bit check: the constant every geometric draw
// divides by, computed once per difficulty instead of once per draw.
var logMissTable = func() (t [MaxDifficultyBits + 1]float64) {
	for m := range t {
		t[m] = math.Log(1 - math.Exp2(-float64(m)))
	}
	return t
}()

// sampleGeometric samples the number of Bernoulli trials up to and
// including the first success, via inversion; logMiss is the log of the
// per-trial failure probability.
func sampleGeometric(rnd *rand.Rand, logMiss float64) uint64 {
	u := rnd.Float64()
	for u == 0 {
		u = rnd.Float64()
	}
	n := math.Ceil(math.Log(u) / logMiss)
	if n < 1 {
		return 1
	}
	if n > math.MaxInt64 {
		return math.MaxInt64
	}
	return uint64(n)
}
