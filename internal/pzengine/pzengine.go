// Package pzengine abstracts puzzle issue/verify behind an interface so the
// simulator can swap real SHA-256 brute forcing for a cost-equivalent
// simulated search. The Sim engine charges identical hash *counts* to the
// CPU models while deriving solution bits deterministically from the
// preimage, so experiments with 17-bit difficulties don't burn host cycles;
// the Real engine performs the genuine cryptographic protocol and is used by
// integration tests (at small difficulties) and by package puzzlenet.
package pzengine

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// Engine issues and verifies puzzle challenges.
type Engine interface {
	// Params returns the current difficulty.
	Params() puzzle.Params
	// SetParams retunes the difficulty at runtime.
	SetParams(puzzle.Params) error
	// Issue creates a challenge bound to the flow.
	Issue(flow puzzle.FlowID) puzzle.Challenge
	// Verify checks a solution, returning hash accounting.
	Verify(flow puzzle.FlowID, sol puzzle.Solution) (puzzle.VerifyInfo, error)
}

// Real performs the genuine Juels–Brainard protocol.
type Real struct {
	Is *puzzle.Issuer
}

var _ Engine = Real{}

// Params implements Engine.
func (r Real) Params() puzzle.Params { return r.Is.Params() }

// SetParams implements Engine.
func (r Real) SetParams(p puzzle.Params) error { return r.Is.SetParams(p) }

// Issue implements Engine.
func (r Real) Issue(flow puzzle.FlowID) puzzle.Challenge { return r.Is.Issue(flow) }

// Verify implements Engine.
func (r Real) Verify(flow puzzle.FlowID, sol puzzle.Solution) (puzzle.VerifyInfo, error) {
	return r.Is.VerifyDetailed(flow, sol)
}

// Sim verifies canonical simulated solutions (see SimSolution) in addition
// to genuinely valid ones: each of the k solutions passes if it is either.
// Statelessness, flow binding, parameter matching, timestamp expiry and
// the hash accounting — one for the preimage, one per solution checked up
// to the first failure — behave exactly as in the real protocol; only the
// brute-force search is elided.
type Sim struct {
	Is *puzzle.Issuer
}

var _ Engine = Sim{}

// Params implements Engine.
func (s Sim) Params() puzzle.Params { return s.Is.Params() }

// SetParams implements Engine.
func (s Sim) SetParams(p puzzle.Params) error { return s.Is.SetParams(p) }

// Issue implements Engine.
func (s Sim) Issue(flow puzzle.FlowID) puzzle.Challenge { return s.Is.Issue(flow) }

// Verify implements Engine.
func (s Sim) Verify(flow puzzle.FlowID, sol puzzle.Solution) (puzzle.VerifyInfo, error) {
	params := s.Is.Params()
	var info puzzle.VerifyInfo
	if sol.Params != params {
		return info, fmt.Errorf("pzengine: solution for %v, server at %v: %w",
			sol.Params, params, puzzle.ErrParamMismatch)
	}
	if err := s.Is.ValidateTimestamp(sol.Timestamp); err != nil {
		return info, err
	}
	pre := s.Is.PreimageFor(flow, sol.Timestamp)
	info.Hashes = 1
	if len(sol.Solutions) != int(params.K) {
		return info, fmt.Errorf("pzengine: got %d solutions, want %d: %w",
			len(sol.Solutions), params.K, puzzle.ErrWrongCount)
	}
	sb := params.SolutionBytes()
	for i, raw := range sol.Solutions {
		if len(raw) != sb {
			return info, fmt.Errorf("pzengine: solution %d is %d bytes, want %d: %w",
				i+1, len(raw), sb, puzzle.ErrWrongLength)
		}
		info.Hashes++
		info.Checked++
		index := uint8(i + 1)
		if !bytes.Equal(raw, SimSolutionBits(pre, params, index)) && !puzzle.SolutionValid(pre, params, index, raw) {
			return info, fmt.Errorf("pzengine: solution %d fails %d-bit check: %w", i+1, params.M, puzzle.ErrBadSolution)
		}
	}
	return info, nil
}

// simMagic domain-separates simulated solution bits from anything the real
// protocol hashes.
var simMagic = []byte("tcppuzzles-sim-solution")

// SimSolutionBits derives the canonical simulated solution for index i from
// the preimage. It is a keyed function of the preimage, so only a party that
// received (or re-derived) the challenge can produce it — preserving the
// flow binding and replay semantics of the real protocol.
func SimSolutionBits(preimage []byte, params puzzle.Params, index uint8) []byte {
	buf := make([]byte, 0, len(preimage)+1+len(simMagic))
	buf = append(buf, preimage...)
	buf = append(buf, index)
	buf = append(buf, simMagic...)
	sum := sha256.Sum256(buf)
	out := make([]byte, params.SolutionBytes())
	copy(out, sum[:])
	return out
}

// SimSolution produces the canonical simulated solution for a challenge.
// The caller is responsible for charging puzzle.SampleSolveHashes to its CPU
// model.
func SimSolution(ch puzzle.Challenge) puzzle.Solution {
	sol := puzzle.Solution{
		Params:    ch.Params,
		Timestamp: ch.Timestamp,
		Solutions: make([][]byte, ch.Params.K),
	}
	for i := range sol.Solutions {
		sol.Solutions[i] = SimSolutionBits(ch.Preimage, ch.Params, uint8(i+1))
	}
	return sol
}
