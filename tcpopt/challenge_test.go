package tcpopt

import (
	"bytes"
	"errors"
	"fmt"
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
	// An acceptance, the package's one Verify under a random secret: no
	// rejection here can pass by chance.
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

// All three encoders must reject what the wire format cannot carry and
// name the reason; AppendChallenge must also hand dst back as it was, and
// MarshalChallenge — the same call on a nil dst — nil.
func TestMarshalChallengeRejectsWhatEncodeRejects(t *testing.T) {
	prefix := []byte{0xaa, 0xbb, 0xcc}
	for _, tt := range []struct {
		ch   puzzle.Challenge
		want error
	}{
		{puzzle.Challenge{Params: puzzle.Params{K: 0, M: 8, L: 32}, Preimage: make([]byte, 4)}, puzzle.ErrInvalidParams},
		{puzzle.Challenge{Params: puzzle.Params{K: 2, M: 8, L: 30}, Preimage: make([]byte, 4)}, puzzle.ErrInvalidParams},
		{puzzle.Challenge{Params: puzzle.Params{K: 2, M: 8, L: 255}, Preimage: make([]byte, 31)}, puzzle.ErrInvalidParams},
		{puzzle.Challenge{Params: puzzle.Params{K: 2, M: 40, L: 32}, Preimage: make([]byte, 4)}, puzzle.ErrInvalidParams},
		{puzzle.Challenge{Params: puzzle.Params{K: 2, M: 8, L: 32}, Preimage: make([]byte, 3)}, ErrChallengeMalformed},
		{puzzle.Challenge{Params: puzzle.Params{K: 2, M: 8, L: 32}, Preimage: make([]byte, 40)}, ErrChallengeMalformed},
	} {
		for _, embedTS := range []bool{true, false} {
			got, err := AppendChallenge(prefix, tt.ch, embedTS)
			if !errors.Is(err, tt.want) || !bytes.Equal(got, prefix) {
				t.Errorf("AppendChallenge(%+v) = %x, %v; want dst unchanged and %v", tt.ch.Params, got, err, tt.want)
			}
			if raw, err := MarshalChallenge(tt.ch, embedTS); !errors.Is(err, tt.want) || raw != nil {
				t.Errorf("MarshalChallenge(%+v) = %x, %v; want nil and %v", tt.ch.Params, raw, err, tt.want)
			}
			if _, err := EncodeChallenge(tt.ch, embedTS); !errors.Is(err, tt.want) {
				t.Errorf("EncodeChallenge(%+v) error = %v, want %v", tt.ch.Params, err, tt.want)
			}
		}
	}
}

// For every valid (k, m, l, embedTS) AppendChallenge writes the bytes the
// wire format specifies — built by hand here, so the oracle shares no code
// with the codec — after whatever dst already holds, padded from where the
// option starts (not from the start of dst), in place when dst has the
// room; MarshalChallenge is the same bytes and ChallengeWireSize their
// count.
func TestAppendChallengeEveryParams(t *testing.T) {
	pre := make([]byte, puzzle.MaxPreimageBits/8)
	for i := range pre {
		pre[i] = byte(0x80 + i)
	}
	const ts = 0x01020304
	prefix := []byte{0xaa, 0xbb, 0xcc} // odd length: padding must ignore it
	roomy := make([]byte, len(prefix), len(prefix)+MaxOptionsLen)
	copy(roomy, prefix)
	var want []byte
	for l := puzzle.MinPreimageBits; l <= puzzle.MaxPreimageBits; l += 8 {
		for m := puzzle.MinDifficultyBits; m <= min(l, puzzle.MaxDifficultyBits); m++ {
			for k := 1; k <= 255; k++ {
				for _, embedTS := range []bool{true, false} {
					p := puzzle.Params{K: uint8(k), M: uint8(m), L: uint8(l)}
					ch := puzzle.Challenge{Params: p, Timestamp: ts, Preimage: pre[:l/8]}
					n := 5 + l/8
					want = append(want[:0], KindChallenge, 0, p.K, p.M, p.L)
					want = append(want, ch.Preimage...)
					if embedTS {
						want = append(want, 1, 2, 3, 4)
						n += 4
					}
					want[1] = byte(n)
					for len(want)%4 != 0 {
						want = append(want, KindNOP)
					}
					if got := ChallengeWireSize(p, embedTS); got != len(want) {
						t.Fatalf("ChallengeWireSize(%v, %v) = %d, encoded length %d", p, embedTS, got, len(want))
					}
					if got, err := SizeChallenge(p, embedTS); got != len(want) || err != nil {
						t.Fatalf("SizeChallenge(%v, %v) = %d, %v; encoded length %d", p, embedTS, got, err, len(want))
					}
					raw, err := MarshalChallenge(ch, embedTS)
					if err != nil || !bytes.Equal(raw, want) {
						t.Fatalf("MarshalChallenge(%v, %v) = %x, %v; want %x", p, embedTS, raw, err, want)
					}
					got, err := AppendChallenge(prefix, ch, embedTS)
					if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
						t.Fatalf("AppendChallenge(prefix, %v, %v) = %x, %v; want prefix then %x", p, embedTS, got, err, want)
					}
					got, err = AppendChallenge(roomy, ch, embedTS)
					if err != nil || &got[0] != &roomy[0] || !bytes.Equal(got[len(prefix):], want) {
						t.Fatalf("AppendChallenge(roomy, %v, %v) = %x, %v; want %x written in place", p, embedTS, got, err, want)
					}
				}
			}
		}
	}
}

// SizeChallenge is AppendChallenge without the bytes, errors included:
// over every (m, l) byte pair at k = 0, 1 and 255, valid or not, it
// returns the size AppendChallenge appends for a challenge with a well
// formed preimage, or the same error. No valid parameters overflow the
// options area (l = 248 with the timestamp fills it exactly), so the
// ErrTooLarge branch both share is unreachable from here.
func TestSizeChallengeMatchesAppend(t *testing.T) {
	pre := make([]byte, 255/8)
	for _, k := range []uint8{0, 1, 255} {
		for m := range 256 {
			for l := range 256 {
				for _, embedTS := range []bool{true, false} {
					p := puzzle.Params{K: k, M: uint8(m), L: uint8(l)}
					raw, appendErr := AppendChallenge(nil, puzzle.Challenge{Params: p, Preimage: pre[:l/8]}, embedTS)
					n, sizeErr := SizeChallenge(p, embedTS)
					if n != len(raw) || fmt.Sprint(sizeErr) != fmt.Sprint(appendErr) {
						t.Fatalf("SizeChallenge(%v, %v) = %d, %v; AppendChallenge gave %d bytes, %v", p, embedTS, n, sizeErr, len(raw), appendErr)
					}
				}
			}
		}
	}
}

// solutionWireSize is the encoded length of every solution block that
// fits the 40-byte options area, and exceeds it exactly when the codec
// refuses the block.
func TestSolutionWireSizeEveryParams(t *testing.T) {
	for l := puzzle.MinPreimageBits; l <= puzzle.MaxPreimageBits; l += 8 {
		for k := 1; k <= 40; k++ {
			for _, embedTS := range []bool{true, false} {
				p := puzzle.Params{K: uint8(k), M: 8, L: uint8(l)}
				sol := puzzle.Solution{Params: p, Solutions: make([][]byte, k)}
				for i := range sol.Solutions {
					sol.Solutions[i] = make([]byte, l/8)
				}
				size := solutionWireSize(p, embedTS)
				opt, err := EncodeSolution(SolutionBlock{HasTimestamp: embedTS, Solution: sol})
				if size > MaxOptionsLen {
					if !errors.Is(err, ErrTooLarge) {
						t.Fatalf("EncodeSolution(%v, %v) error = %v with wire size %d, want ErrTooLarge", p, embedTS, err, size)
					}
					continue
				}
				if err != nil {
					t.Fatalf("EncodeSolution(%v, %v): %v with wire size %d", p, embedTS, err, size)
				}
				raw, err := MarshalOptions([]Option{opt})
				if err != nil || len(raw) != size {
					t.Fatalf("solutionWireSize(%v, %v) = %d, encoded length %d (%v)", p, embedTS, size, len(raw), err)
				}
			}
		}
	}
}

// ParseChallenge hands out a view of the option bytes, not a copy: the
// simulator's per-challenge path relies on it costing no heap object, and
// callers rely on the documented lifetime. The view is capped, so
// appending to it cannot reach the timestamp that follows it.
func TestParseChallengeAliasesOption(t *testing.T) {
	ch := testChallenge(t, puzzle.Params{K: 2, M: 17, L: 64})
	raw, err := MarshalChallenge(ch, true)
	if err != nil {
		t.Fatalf("MarshalChallenge: %v", err)
	}
	opt, ok, err := Lookup(raw, KindChallenge)
	if err != nil || !ok {
		t.Fatalf("Lookup = %v, %v", ok, err)
	}
	blk, err := ParseChallenge(opt)
	if err != nil {
		t.Fatalf("ParseChallenge: %v", err)
	}
	pre := blk.Challenge.Preimage
	if &pre[0] != &raw[5] {
		t.Fatal("Preimage is a copy; ParseChallenge documents a view of the option bytes")
	}
	if cap(pre) != len(pre) {
		t.Fatalf("Preimage cap %d > len %d: an append would overwrite the timestamp", cap(pre), len(pre))
	}
	if allocs := testing.AllocsPerRun(100, func() { blk, err = ParseChallenge(opt) }); allocs != 0 {
		t.Errorf("ParseChallenge allocates %v objects, want 0", allocs)
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
		got := solutionWireSize(tt.p, tt.embedTS)
		if got != tt.wantSol {
			t.Errorf("solutionWireSize(%v, %v) = %d, want %d", tt.p, tt.embedTS, got, tt.wantSol)
		}
		if tt.fitsHeader != (got <= MaxOptionsLen) {
			t.Errorf("solutionWireSize(%v) fit = %v, want %v", tt.p, got <= MaxOptionsLen, tt.fitsHeader)
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

// solutionWireSize returns the encoded (padded) size in bytes of a
// solution option for the given parameters: the reference EncodeSolution
// is checked against.
func solutionWireSize(p puzzle.Params, embedTS bool) int {
	n := 2 + 3 + int(p.K)*p.SolutionBytes()
	if embedTS {
		n += 4
	}
	return align4(n)
}
