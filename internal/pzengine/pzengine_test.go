package pzengine

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

func testIssuer(t *testing.T, p puzzle.Params) *puzzle.Issuer {
	t.Helper()
	is, err := puzzle.NewIssuer(
		puzzle.WithParams(p),
		puzzle.WithClock(func() time.Time { return time.Unix(1_700_000_000, 0) }),
	)
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	return is
}

func flow() puzzle.FlowID {
	return puzzle.FlowID{SrcIP: [4]byte{1, 2, 3, 4}, SrcPort: 555, DstPort: 80, ISN: 42}
}

func TestSimAcceptsSimSolutions(t *testing.T) {
	p := puzzle.Params{K: 2, M: 17, L: 32} // too hard to really solve in a test
	eng := Sim{Is: testIssuer(t, p)}
	ch := eng.Issue(flow())
	sol := SimSolution(ch)
	info, err := eng.Verify(flow(), sol)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if info.Hashes != 1+int(p.K) {
		t.Errorf("Hashes = %d, want %d", info.Hashes, 1+p.K)
	}
}

func TestSimAcceptsRealSolutions(t *testing.T) {
	p := puzzle.Params{K: 2, M: 4, L: 32}
	eng := Sim{Is: testIssuer(t, p)}
	ch := eng.Issue(flow())
	sol, _, err := puzzle.Solve(ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if _, err := eng.Verify(flow(), sol); err != nil {
		t.Errorf("Verify(real solution): %v", err)
	}
}

func TestSimRejectsGarbage(t *testing.T) {
	p := puzzle.Params{K: 2, M: 17, L: 32}
	eng := Sim{Is: testIssuer(t, p)}
	garbage := puzzle.Solution{
		Params:    p,
		Timestamp: 1_700_000_000,
		Solutions: [][]byte{make([]byte, 4), make([]byte, 4)},
	}
	if _, err := eng.Verify(flow(), garbage); err == nil {
		t.Error("Verify accepted garbage")
	}
}

func TestSimRejectsWrongFlow(t *testing.T) {
	p := puzzle.Params{K: 1, M: 17, L: 32}
	eng := Sim{Is: testIssuer(t, p)}
	sol := SimSolution(eng.Issue(flow()))
	other := flow()
	other.ISN++
	if _, err := eng.Verify(other, sol); err == nil {
		t.Error("Verify accepted solution for a different flow")
	}
}

func TestSimEnforcesExpiryAndParams(t *testing.T) {
	p := puzzle.Params{K: 1, M: 17, L: 32}
	is := testIssuer(t, p)
	eng := Sim{Is: is}
	sol := SimSolution(eng.Issue(flow()))

	// Parameter mismatch after retuning.
	if err := eng.SetParams(puzzle.Params{K: 1, M: 18, L: 32}); err != nil {
		t.Fatalf("SetParams: %v", err)
	}
	if _, err := eng.Verify(flow(), sol); !errors.Is(err, puzzle.ErrParamMismatch) {
		t.Errorf("Verify error = %v, want ErrParamMismatch", err)
	}
	if err := eng.SetParams(p); err != nil {
		t.Fatalf("SetParams back: %v", err)
	}

	// Expired timestamp.
	old := sol
	old.Timestamp -= 3600
	if _, err := eng.Verify(flow(), old); !errors.Is(err, puzzle.ErrExpired) {
		t.Errorf("Verify error = %v, want ErrExpired", err)
	}
}

func TestSimRejectsWrongCountAndLength(t *testing.T) {
	p := puzzle.Params{K: 2, M: 17, L: 32}
	eng := Sim{Is: testIssuer(t, p)}
	sol := SimSolution(eng.Issue(flow()))

	short := sol
	short.Solutions = sol.Solutions[:1]
	if _, err := eng.Verify(flow(), short); !errors.Is(err, puzzle.ErrWrongCount) {
		t.Errorf("Verify(short) = %v, want ErrWrongCount", err)
	}
	trunc := sol
	trunc.Solutions = [][]byte{sol.Solutions[0][:2], sol.Solutions[1]}
	if _, err := eng.Verify(flow(), trunc); !errors.Is(err, puzzle.ErrWrongLength) {
		t.Errorf("Verify(trunc) = %v, want ErrWrongLength", err)
	}
}

func TestRealEngineRoundTrip(t *testing.T) {
	p := puzzle.Params{K: 1, M: 16, L: 32}
	is := testIssuer(t, p)
	eng := Real{Is: is}
	ch := is.Issue(flow())
	sol, _, err := puzzle.Solve(ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if _, err := eng.Verify(flow(), sol); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Real engine must NOT accept sim solutions.
	if _, err := eng.Verify(flow(), SimSolution(ch)); err == nil {
		t.Error("Real engine accepted a sim solution")
	}
}

func TestSimSolutionBitsDeterministic(t *testing.T) {
	p := puzzle.Params{K: 1, M: 8, L: 64}
	pre := make([]byte, 8)
	a := SimSolutionBits(pre, p, 1)
	b := SimSolutionBits(pre, p, 1)
	c := SimSolutionBits(pre, p, 2)
	if string(a) != string(b) {
		t.Error("SimSolutionBits not deterministic")
	}
	if string(a) == string(c) {
		t.Error("SimSolutionBits ignores index")
	}
	if len(a) != p.SolutionBytes() {
		t.Errorf("len = %d, want %d", len(a), p.SolutionBytes())
	}
}

// The simulated engine over the simulator's keyed-mix issuer must decide
// every ACK the way the genuine protocol over SHA-256 does — same error
// class, same hash count charged to the server CPU — so that the
// simulator's one engine stands in for the genuine protocol. Real is the
// reference; the simulator never runs it. All four engine × issuer
// pairings are held to one expectation per case. (Replay
// is stateless here by design: the engine accepts the same ACK twice and
// the defense's accept-queue lookup blocks the second, see
// defense.completeSolution.)
func TestSimAndRealDecideAlike(t *testing.T) {
	p := puzzle.Params{K: 2, M: 8, L: 32}
	const now = 1_700_000_000
	cases := []struct {
		name   string
		mutate func(flow *puzzle.FlowID, sol *puzzle.Solution, genuine puzzle.Solution)
		want   error
		hashes int
	}{
		{"valid", func(*puzzle.FlowID, *puzzle.Solution, puzzle.Solution) {}, nil, 3},
		{"replayed ACK", func(*puzzle.FlowID, *puzzle.Solution, puzzle.Solution) {}, nil, 3},
		{"wrong flow", func(f *puzzle.FlowID, _ *puzzle.Solution, _ puzzle.Solution) { f.SrcPort++ }, puzzle.ErrBadSolution, 2},
		{"expired", func(_ *puzzle.FlowID, s *puzzle.Solution, _ puzzle.Solution) { s.Timestamp -= 3600 }, puzzle.ErrExpired, 0},
		{"future timestamp", func(_ *puzzle.FlowID, s *puzzle.Solution, _ puzzle.Solution) { s.Timestamp += 3600 }, puzzle.ErrFutureTimestamp, 0},
		{"param mismatch", func(_ *puzzle.FlowID, s *puzzle.Solution, _ puzzle.Solution) { s.Params.M++ }, puzzle.ErrParamMismatch, 0},
		{"wrong count", func(_ *puzzle.FlowID, s *puzzle.Solution, _ puzzle.Solution) { s.Solutions = s.Solutions[:1] }, puzzle.ErrWrongCount, 1},
		{"wrong length, first", func(_ *puzzle.FlowID, s *puzzle.Solution, _ puzzle.Solution) {
			s.Solutions = [][]byte{s.Solutions[0][:2], s.Solutions[1]}
		}, puzzle.ErrWrongLength, 1},
		{"wrong length, second", func(_ *puzzle.FlowID, s *puzzle.Solution, _ puzzle.Solution) {
			s.Solutions = [][]byte{s.Solutions[0], s.Solutions[1][:2]}
		}, puzzle.ErrWrongLength, 2},
		{"garbage bits", func(_ *puzzle.FlowID, s *puzzle.Solution, _ puzzle.Solution) {
			s.Solutions = [][]byte{{0xde, 0xad, 0xbe, 0xef}, {0xde, 0xad, 0xbe, 0xef}}
		}, puzzle.ErrBadSolution, 2},
		// Mixed ACKs: the engine's own solution (canonical for Sim,
		// genuine for Real) beside a genuine one or garbage. Sim accepts
		// each solution that is canonical or genuine, and charges, as Real
		// does, one hash per solution checked up to the first failure.
		{"own then garbage", func(_ *puzzle.FlowID, s *puzzle.Solution, _ puzzle.Solution) {
			s.Solutions = [][]byte{s.Solutions[0], {0xde, 0xad, 0xbe, 0xef}}
		}, puzzle.ErrBadSolution, 3},
		{"genuine then own", func(_ *puzzle.FlowID, s *puzzle.Solution, g puzzle.Solution) {
			s.Solutions = [][]byte{g.Solutions[0], s.Solutions[1]}
		}, nil, 3},
		{"own then genuine", func(_ *puzzle.FlowID, s *puzzle.Solution, g puzzle.Solution) {
			s.Solutions = [][]byte{s.Solutions[0], g.Solutions[1]}
		}, nil, 3},
	}
	secret := []byte("0123456789abcdef0123456789abcdef")
	clock := puzzle.WithClock(func() time.Time { return time.Unix(now, 0) })
	issuers := map[string][]puzzle.IssuerOption{
		"sha256":    {puzzle.WithParams(p), puzzle.WithSecret(secret), clock},
		"keyed mix": {puzzle.WithParams(p), puzzle.WithSecret(secret), clock, puzzle.WithSimulatedPreimage(nil)},
	}
	for issuerName, opts := range issuers {
		is, err := puzzle.NewIssuer(opts...)
		if err != nil {
			t.Fatalf("NewIssuer: %v", err)
		}
		engines := map[string]struct {
			eng interface {
				Verify(puzzle.FlowID, puzzle.Solution) (puzzle.VerifyInfo, error)
			}
			solve func(puzzle.Challenge) puzzle.Solution
		}{
			"Real": {Real{Is: is}, func(ch puzzle.Challenge) puzzle.Solution {
				sol, _, err := puzzle.Solve(ch)
				if err != nil {
					t.Fatalf("Solve: %v", err)
				}
				return sol
			}},
			"Sim": {Sim{Is: is}, SimSolution},
		}
		for engineName, e := range engines {
			for _, tc := range cases {
				t.Run(engineName+" over "+issuerName+"/"+tc.name, func(t *testing.T) {
					f := flow()
					ch := is.Issue(f)
					sol := e.solve(ch)
					genuine, _, err := puzzle.Solve(ch)
					if err != nil {
						t.Fatalf("Solve: %v", err)
					}
					tc.mutate(&f, &sol, genuine)
					info, err := e.eng.Verify(f, sol)
					if !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
						t.Errorf("Verify error = %v, want %v", err, tc.want)
					}
					if info.Hashes != tc.hashes {
						t.Errorf("Verify charged %d hashes, want %d", info.Hashes, tc.hashes)
					}
				})
			}
		}
	}
}

// AckOptions puts the whole option area of the final ACK into one
// solution option: MSS 1460, window scale 7 and the timestamped
// solution, which parses back under the issuer's parameters and verifies.
func TestAckOptionsCarrySolution(t *testing.T) {
	p := puzzle.Params{K: 2, M: 17, L: 32}
	eng := Sim{Is: testIssuer(t, p)}
	sol := SimSolution(eng.Issue(flow()))
	raw, err := AckOptions(sol)
	if err != nil {
		t.Fatalf("AckOptions: %v", err)
	}
	opt, ok, err := tcpopt.Lookup(raw, tcpopt.KindSolution)
	if err != nil || !ok || len(raw) != (2+len(opt.Data)+3)&^3 {
		t.Fatalf("Lookup(%x) = %+v, %v, %v; want one solution option", raw, opt, ok, err)
	}
	blk, err := tcpopt.ParseSolution(opt, eng.Params())
	if err != nil {
		t.Fatalf("ParseSolution: %v", err)
	}
	if blk.MSS != 1460 || blk.WScale != 7 || !blk.HasTimestamp {
		t.Errorf("block MSS %d, WScale %d, timestamped %v; want 1460, 7, true", blk.MSS, blk.WScale, blk.HasTimestamp)
	}
	if blk.Solution.Timestamp != sol.Timestamp || !reflect.DeepEqual(blk.Solution.Solutions, sol.Solutions) {
		t.Errorf("parsed solution %+v, sent %+v", blk.Solution, sol)
	}
	if _, err := eng.Verify(flow(), blk.Solution); err != nil {
		t.Errorf("Verify(parsed solution): %v", err)
	}
}

// A solution that cannot be encoded is an error, not an empty option area.
func TestAckOptionsRejectsMalformedSolution(t *testing.T) {
	p := puzzle.Params{K: 2, M: 17, L: 32}
	sol := SimSolution(Sim{Is: testIssuer(t, p)}.Issue(flow()))
	sol.Solutions = sol.Solutions[:1]
	if raw, err := AckOptions(sol); !errors.Is(err, tcpopt.ErrSolutionMalformed) {
		t.Errorf("AckOptions(one of two solutions) = %x, %v; want ErrSolutionMalformed", raw, err)
	}
}
