// Package membound implements a memory-bound client-puzzle scheme in the
// style of Abadi, Burrows, Manasse and Wobber ("Moderately Hard,
// Memory-bound Functions", ACM TOIT 2005) — the future-work direction the
// paper's §7 proposes for levelling the playing field between power-endowed
// and power-limited clients: memory latency varies far less across device
// classes than compute throughput, so memory-bound puzzles cost a desktop
// and a Raspberry Pi roughly the same wall-clock time.
//
// The scheme: issuer and solver share a large pseudo-random table T (built
// deterministically from a public seed — too large for the working set of
// a fast cache, so lookups are DRAM-latency-bound). A challenge fixes a
// start preimage; the solver tries candidate nonces s = 0, 1, 2, …, and
// for each performs a chained walk of Walk dependent table lookups
//
//	x₀ = H(preimage ‖ s)
//	xᵢ₊₁ = T[xᵢ mod |T|] ⊕ rotl(xᵢ, 11)
//
// accepting when the first M bits of the final value are zero. Each trial
// costs Walk serialized memory accesses (the data dependence defeats
// prefetching); the expected solve cost is 2^M · Walk accesses. The issuer
// verifies in a single walk.
package membound

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

var (
	// ErrInvalidParams reports malformed difficulty parameters.
	ErrInvalidParams = errors.New("membound: invalid parameters")
	// ErrBadSolution reports a nonce that fails the difficulty check.
	ErrBadSolution = errors.New("membound: solution invalid")
	// ErrBudgetExhausted reports that the solver gave up.
	ErrBudgetExhausted = errors.New("membound: walk budget exhausted")
)

// Params is a memory-bound difficulty setting.
type Params struct {
	// M is the number of leading zero bits required of the walk result.
	M uint8
	// Walk is the number of chained table lookups per trial.
	Walk uint16
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M == 0 || p.M > 30 {
		return fmt.Errorf("membound: m=%d outside [1,30]: %w", p.M, ErrInvalidParams)
	}
	if p.Walk == 0 {
		return fmt.Errorf("membound: zero walk length: %w", ErrInvalidParams)
	}
	return nil
}

// ExpectedAccesses returns the expected number of memory accesses to solve:
// 2^M trials of Walk lookups each.
func (p Params) ExpectedAccesses() float64 {
	return math.Exp2(float64(p.M)) * float64(p.Walk)
}

// VerifyAccesses returns the verifier's cost: one walk.
func (p Params) VerifyAccesses() float64 { return float64(p.Walk) }

// Table is the shared lookup table. Both sides derive it from the same
// public seed; it is immutable after construction and safe for concurrent
// use.
type Table struct {
	entries []uint32
	mask    uint32
}

// MinLogSize and MaxLogSize bound table sizes (2^22 entries = 16 MiB, well
// past L2/L3 on the paper's devices).
const (
	MinLogSize = 10
	MaxLogSize = 26
)

// NewTable builds the table of 2^logSize uint32 entries from a public seed.
func NewTable(seed []byte, logSize int) (*Table, error) {
	if logSize < MinLogSize || logSize > MaxLogSize {
		return nil, fmt.Errorf("membound: logSize %d outside [%d,%d]: %w",
			logSize, MinLogSize, MaxLogSize, ErrInvalidParams)
	}
	n := 1 << logSize
	t := &Table{entries: make([]uint32, n), mask: uint32(n - 1)}
	// Expand the seed with SHA-256 in counter mode: deterministic,
	// reproducible on both sides.
	var block [8]byte
	var sum [sha256.Size]byte
	buf := make([]byte, 0, len(seed)+8)
	for i := 0; i < n; i += 8 {
		binary.BigEndian.PutUint64(block[:], uint64(i))
		buf = buf[:0]
		buf = append(buf, seed...)
		buf = append(buf, block[:]...)
		sum = sha256.Sum256(buf)
		for j := 0; j < 8 && i+j < n; j++ {
			t.entries[i+j] = binary.BigEndian.Uint32(sum[j*4:])
		}
	}
	return t, nil
}

// Len returns the number of table entries.
func (t *Table) Len() int { return len(t.entries) }

// Challenge is a memory-bound challenge.
type Challenge struct {
	Params   Params
	Preimage []byte
}

// Solution is a solved challenge: the successful nonce.
type Solution struct {
	Nonce uint64
}

// Stats reports solver accounting.
type Stats struct {
	// Trials is the number of nonces tested.
	Trials uint64
	// Accesses is the total number of table lookups performed.
	Accesses uint64
}

// start derives the walk's initial value from the preimage and nonce.
func start(preimage []byte, nonce uint64) uint32 {
	buf := make([]byte, 0, len(preimage)+8)
	buf = append(buf, preimage...)
	buf = binary.BigEndian.AppendUint64(buf, nonce)
	sum := sha256.Sum256(buf)
	return binary.BigEndian.Uint32(sum[:4])
}

// walk runs the chained lookups.
func (t *Table) walk(x uint32, steps uint16) uint32 {
	for i := uint16(0); i < steps; i++ {
		x = t.entries[x&t.mask] ^ bits.RotateLeft32(x, 11)
	}
	return x
}

// meets reports whether the walk result satisfies the difficulty.
func meets(x uint32, m uint8) bool {
	return bits.LeadingZeros32(x) >= int(m)
}

// Solve brute-forces a challenge. maxTrials bounds the search (zero means
// unlimited).
func (t *Table) Solve(ch Challenge, maxTrials uint64) (Solution, Stats, error) {
	var stats Stats
	if err := ch.Params.Validate(); err != nil {
		return Solution{}, stats, err
	}
	for nonce := uint64(0); maxTrials == 0 || nonce < maxTrials; nonce++ {
		stats.Trials++
		stats.Accesses += uint64(ch.Params.Walk)
		if meets(t.walk(start(ch.Preimage, nonce), ch.Params.Walk), ch.Params.M) {
			return Solution{Nonce: nonce}, stats, nil
		}
	}
	return Solution{}, stats, fmt.Errorf("membound: %d trials: %w", stats.Trials, ErrBudgetExhausted)
}

// Verify checks a solution with a single walk.
func (t *Table) Verify(ch Challenge, sol Solution) error {
	if err := ch.Params.Validate(); err != nil {
		return err
	}
	if !meets(t.walk(start(ch.Preimage, sol.Nonce), ch.Params.Walk), ch.Params.M) {
		return ErrBadSolution
	}
	return nil
}
