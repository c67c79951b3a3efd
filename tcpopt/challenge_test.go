package tcpopt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

func testChallenge(t *testing.T, p puzzle.Params) puzzle.Challenge {
	t.Helper()
	is, err := puzzle.NewIssuer(puzzle.WithParams(p))
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	return is.IssueAt(puzzle.FlowID{SrcPort: 1, DstPort: 2, ISN: 3}, 42)
}

func TestChallengeRoundTrip(t *testing.T) {
	for _, embedTS := range []bool{true, false} {
		p := puzzle.Params{K: 2, M: 17, L: 64}
		ch := testChallenge(t, p)
		opt, err := EncodeChallenge(ch, embedTS)
		if err != nil {
			t.Fatalf("EncodeChallenge(embedTS=%v): %v", embedTS, err)
		}
		blk, err := ParseChallenge(opt)
		if err != nil {
			t.Fatalf("ParseChallenge(embedTS=%v): %v", embedTS, err)
		}
		if blk.HasTimestamp != embedTS {
			t.Errorf("HasTimestamp = %v, want %v", blk.HasTimestamp, embedTS)
		}
		if blk.Challenge.Params != p {
			t.Errorf("params = %v, want %v", blk.Challenge.Params, p)
		}
		if !bytes.Equal(blk.Challenge.Preimage, ch.Preimage) {
			t.Errorf("preimage mismatch")
		}
		if embedTS && blk.Challenge.Timestamp != ch.Timestamp {
			t.Errorf("timestamp = %d, want %d", blk.Challenge.Timestamp, ch.Timestamp)
		}
	}
}

func TestSolutionRoundTrip(t *testing.T) {
	for _, embedTS := range []bool{true, false} {
		p := puzzle.Params{K: 2, M: 4, L: 64}
		ch := testChallenge(t, p)
		sol, _, err := puzzle.Solve(ch)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		in := SolutionBlock{MSS: 1460, WScale: 7, HasTimestamp: embedTS, Solution: sol}
		opt, err := EncodeSolution(in)
		if err != nil {
			t.Fatalf("EncodeSolution: %v", err)
		}
		out, err := ParseSolution(opt, p)
		if err != nil {
			t.Fatalf("ParseSolution: %v", err)
		}
		if out.MSS != 1460 || out.WScale != 7 || out.HasTimestamp != embedTS {
			t.Errorf("header fields = %+v", out)
		}
		if embedTS && out.Solution.Timestamp != sol.Timestamp {
			t.Errorf("timestamp = %d, want %d", out.Solution.Timestamp, sol.Timestamp)
		}
		if len(out.Solution.Solutions) != int(p.K) {
			t.Fatalf("got %d solutions, want %d", len(out.Solution.Solutions), p.K)
		}
		for i := range sol.Solutions {
			if !bytes.Equal(out.Solution.Solutions[i], sol.Solutions[i]) {
				t.Errorf("solution %d mismatch", i)
			}
		}
	}
}

func TestSolutionVerifiesAfterWireRoundTrip(t *testing.T) {
	// End-to-end statelessness: challenge goes over the wire, comes back as
	// a solution block with an echoed timestamp, and still verifies.
	p := puzzle.Params{K: 2, M: 4, L: 64}
	is, err := puzzle.NewIssuer(puzzle.WithParams(p))
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	flow := puzzle.FlowID{SrcIP: [4]byte{1, 2, 3, 4}, SrcPort: 5555, DstPort: 80, ISN: 99}
	chOpt, err := EncodeChallenge(is.Issue(flow), true)
	if err != nil {
		t.Fatalf("EncodeChallenge: %v", err)
	}

	// Client side.
	blk, err := ParseChallenge(chOpt)
	if err != nil {
		t.Fatalf("ParseChallenge: %v", err)
	}
	sol, _, err := puzzle.Solve(blk.Challenge)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	solOpt, err := EncodeSolution(SolutionBlock{MSS: 1200, WScale: 2, HasTimestamp: true, Solution: sol})
	if err != nil {
		t.Fatalf("EncodeSolution: %v", err)
	}

	// Server side: parse against current params and verify.
	got, err := ParseSolution(solOpt, is.Params())
	if err != nil {
		t.Fatalf("ParseSolution: %v", err)
	}
	if err := is.Verify(flow, got.Solution); err != nil {
		t.Fatalf("Verify after wire round trip: %v", err)
	}
}

func TestParseChallengeRejectsMalformed(t *testing.T) {
	p := puzzle.Params{K: 1, M: 4, L: 64}
	opt, err := EncodeChallenge(testChallenge(t, p), true)
	if err != nil {
		t.Fatalf("EncodeChallenge: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(Option) Option
	}{
		{"wrong kind", func(o Option) Option { o.Kind = KindSolution; return o }},
		{"truncated", func(o Option) Option { o.Data = o.Data[:2]; return o }},
		{"body length off", func(o Option) Option { o.Data = o.Data[:len(o.Data)-1]; return o }},
		{"bad params", func(o Option) Option {
			d := bytes.Clone(o.Data)
			d[0] = 0 // k = 0
			o.Data = d
			return o
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseChallenge(tt.mutate(opt)); err == nil {
				t.Error("ParseChallenge accepted malformed input")
			}
		})
	}
}

func TestParseSolutionRejectsMalformed(t *testing.T) {
	p := puzzle.Params{K: 1, M: 4, L: 64}
	sol, _, err := puzzle.Solve(testChallenge(t, p))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	opt, err := EncodeSolution(SolutionBlock{MSS: 1460, Solution: sol})
	if err != nil {
		t.Fatalf("EncodeSolution: %v", err)
	}
	if _, err := ParseSolution(Option{Kind: KindChallenge, Data: opt.Data}, p); err == nil {
		t.Error("ParseSolution accepted wrong kind")
	}
	if _, err := ParseSolution(Option{Kind: KindSolution, Data: opt.Data[:3]}, p); err == nil {
		t.Error("ParseSolution accepted truncated body")
	}
	// Parsing against different server params must fail: body length no
	// longer matches k·l/8.
	other := puzzle.Params{K: 2, M: 4, L: 64}
	if _, err := ParseSolution(opt, other); !errors.Is(err, ErrSolutionMalformed) {
		t.Errorf("ParseSolution with mismatched params error = %v, want ErrSolutionMalformed", err)
	}
}

func TestEncodeRejectsOversizeBlocks(t *testing.T) {
	// k=4 with l=64 plus timestamp cannot fit the 40-byte option area.
	p := puzzle.Params{K: 4, M: 4, L: 64}
	sol := puzzle.Solution{Params: p, Solutions: make([][]byte, 4)}
	for i := range sol.Solutions {
		sol.Solutions[i] = make([]byte, 8)
	}
	_, err := EncodeSolution(SolutionBlock{HasTimestamp: true, Solution: sol})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("EncodeSolution error = %v, want ErrTooLarge", err)
	}
	// With l=32 the same k fits.
	p32 := puzzle.Params{K: 4, M: 4, L: 32}
	sol32 := puzzle.Solution{Params: p32, Solutions: make([][]byte, 4)}
	for i := range sol32.Solutions {
		sol32.Solutions[i] = make([]byte, 4)
	}
	if _, err := EncodeSolution(SolutionBlock{HasTimestamp: true, Solution: sol32}); err != nil {
		t.Errorf("EncodeSolution(l=32): %v", err)
	}
}

// MarshalChallenge must fail exactly where EncodeChallenge does.
func TestMarshalChallengeRejectsWhatEncodeRejects(t *testing.T) {
	for _, ch := range []puzzle.Challenge{
		{Params: puzzle.Params{K: 0, M: 8, L: 32}, Preimage: make([]byte, 4)},
		{Params: puzzle.Params{K: 2, M: 8, L: 30}, Preimage: make([]byte, 4)},
		{Params: puzzle.Params{K: 2, M: 8, L: 32}, Preimage: make([]byte, 3)},
	} {
		_, want := EncodeChallenge(ch, true)
		raw, err := MarshalChallenge(ch, true)
		if want == nil || err == nil || err.Error() != want.Error() || raw != nil {
			t.Errorf("MarshalChallenge(%+v) = %x, %v; EncodeChallenge error %v", ch.Params, raw, err, want)
		}
	}
}

func TestWireSizes(t *testing.T) {
	tests := []struct {
		p          puzzle.Params
		embedTS    bool
		wantCh     int
		wantSol    int
		fitsHeader bool
	}{
		{puzzle.Params{K: 2, M: 17, L: 64}, true, 20, 28, true},
		{puzzle.Params{K: 2, M: 17, L: 64}, false, 16, 24, true},
		{puzzle.Params{K: 1, M: 8, L: 32}, true, 16, 16, true},
		{puzzle.Params{K: 4, M: 20, L: 32}, true, 16, 28, true},
	}
	for _, tt := range tests {
		if got := ChallengeWireSize(tt.p, tt.embedTS); got != tt.wantCh {
			t.Errorf("ChallengeWireSize(%v, %v) = %d, want %d", tt.p, tt.embedTS, got, tt.wantCh)
		}
		got := SolutionWireSize(tt.p, tt.embedTS)
		if got != tt.wantSol {
			t.Errorf("SolutionWireSize(%v, %v) = %d, want %d", tt.p, tt.embedTS, got, tt.wantSol)
		}
		if tt.fitsHeader != (got <= MaxOptionsLen) {
			t.Errorf("SolutionWireSize(%v) fit = %v, want %v", tt.p, got <= MaxOptionsLen, tt.fitsHeader)
		}
	}
}

// Property: challenge encode/parse round-trips for random preimages across
// all valid byte lengths that fit the option area.
func TestChallengeRoundTripProperty(t *testing.T) {
	f := func(k, m uint8, pre [8]byte, ts uint32, embedTS bool) bool {
		p := puzzle.Params{K: k%4 + 1, M: m%32 + 1, L: 64}
		ch := puzzle.Challenge{Params: p, Timestamp: ts, Preimage: pre[:]}
		opt, err := EncodeChallenge(ch, embedTS)
		if err != nil {
			return false
		}
		blk, err := ParseChallenge(opt)
		if err != nil {
			return false
		}
		ok := blk.Challenge.Params == p && bytes.Equal(blk.Challenge.Preimage, pre[:])
		if embedTS {
			ok = ok && blk.Challenge.Timestamp == ts
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
