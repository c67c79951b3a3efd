// Package pzengine is the simulator's puzzle engine. Sim issues and
// verifies challenges over a puzzle.Issuer, and accepts canonical simulated
// solutions (SimSolution) beside genuine ones: the modelled CPUs are
// charged the brute-force hash counts, while the solution bits derive
// deterministically from the preimage, so experiments at 17-bit
// difficulties burn no host cycles. Real verifies the genuine
// Juels–Brainard protocol only; it is the reference Sim is tested against.
// AckOptions builds the ACK option area that carries a solution.
package pzengine

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// Real verifies solutions by the genuine Juels–Brainard protocol.
type Real struct {
	Is *puzzle.Issuer
}

// Verify checks a genuine solution, returning hash accounting.
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

// Params returns the current difficulty.
func (s Sim) Params() puzzle.Params { return s.Is.Params() }

// SetParams retunes the difficulty at runtime.
func (s Sim) SetParams(p puzzle.Params) error { return s.Is.SetParams(p) }

// Issue creates a challenge bound to the flow.
func (s Sim) Issue(flow puzzle.FlowID) puzzle.Challenge { return s.Is.Issue(flow) }

// Verify checks a solution, returning hash accounting.
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

// AckOptions marshals a solution into the option area of a handshake's
// final ACK: MSS 1460, window scale 7 and the timestamped solution block.
func AckOptions(sol puzzle.Solution) ([]byte, error) {
	opt, err := tcpopt.EncodeSolution(tcpopt.SolutionBlock{
		MSS: 1460, WScale: 7, HasTimestamp: true, Solution: sol,
	})
	if err != nil {
		return nil, err
	}
	return tcpopt.MarshalOptions([]tcpopt.Option{opt})
}
