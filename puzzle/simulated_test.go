package puzzle

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Under WithSimulatedPreimage only the preimage bits change: a challenge
// still binds secret, timestamp and flow, a genuine brute-force solution of
// it verifies, and one for another flow does not. At K=2, M=4 a solution
// also verifies for the neighbouring flow at a few issue seconds in a
// thousand, so the issuer runs on a fixed clock, at an instant where it
// does not.
func TestSimulatedPreimageKeepsTheProtocol(t *testing.T) {
	secret := bytes.Repeat([]byte{0x42}, SecretLen)
	issuedAt := time.Unix(1_700_000_000, 0)
	sim := testIssuer(t, WithSecret(secret), WithSimulatedPreimage(nil),
		WithClock(func() time.Time { return issuedAt }))
	sha := testIssuer(t, WithSecret(secret))
	flow := testFlow()

	ch := sim.Issue(flow)
	sol, _, err := Solve(ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	info, err := sim.VerifyDetailed(flow, sol)
	if err != nil || info.Hashes != 1+int(easyParams.K) {
		t.Fatalf("VerifyDetailed = %+v, %v; want %d hashes and no error", info, err, 1+easyParams.K)
	}
	other := flow
	other.SrcPort++
	if err := sim.Verify(other, sol); !errors.Is(err, ErrBadSolution) {
		t.Errorf("Verify(other flow) = %v, want ErrBadSolution", err)
	}

	pre := sim.IssueAt(flow, 7).Preimage
	if !bytes.Equal(pre, sim.PreimageFor(flow, 7)) {
		t.Error("PreimageFor disagrees with IssueAt")
	}
	again := testIssuer(t, WithSecret(secret), WithSimulatedPreimage(nil))
	if !bytes.Equal(pre, again.IssueAt(flow, 7).Preimage) {
		t.Error("same secret, timestamp and flow gave different preimages")
	}
	for name, got := range map[string][]byte{
		"timestamp": sim.IssueAt(flow, 8).Preimage,
		"flow":      sim.IssueAt(other, 7).Preimage,
		"secret":    testIssuer(t, WithSimulatedPreimage(nil)).IssueAt(flow, 7).Preimage,
		"hash":      sha.IssueAt(flow, 7).Preimage,
	} {
		if bytes.Equal(pre, got) {
			t.Errorf("preimage does not depend on the %s", name)
		}
	}
}

// The keyed mix fills every legal preimage length, and past the first
// word does not repeat it.
func TestSimulatedPreimageEveryLength(t *testing.T) {
	for l := MinPreimageBits; l <= MaxPreimageBits; l += 8 {
		is := testIssuer(t, WithParams(Params{K: 1, M: 8, L: uint8(l)}), WithSimulatedPreimage(nil))
		pre := is.Issue(testFlow()).Preimage
		if len(pre) != l/8 {
			t.Fatalf("l=%d: preimage %d bytes", l, len(pre))
		}
		if len(pre) >= 16 && bytes.Equal(pre[:8], pre[8:16]) {
			t.Errorf("l=%d: second word repeats the first: %x", l, pre)
		}
	}
}

// With a carve function Issue takes the preimage's memory from it and
// nowhere else.
func TestSimulatedPreimageCarve(t *testing.T) {
	buf := make([]byte, 1<<16)
	var asked []int
	carve := func(n int) []byte {
		asked = append(asked, n)
		b := buf[:n:n]
		buf = buf[n:]
		return b
	}
	is := testIssuer(t, WithSimulatedPreimage(carve))
	start := &buf[0]
	ch := is.Issue(testFlow())
	if len(asked) != 1 || asked[0] != easyParams.SolutionBytes() || &ch.Preimage[0] != start {
		t.Fatalf("carve asked for %v bytes, preimage at %p; want one request of %d bytes at %p",
			asked, &ch.Preimage[0], easyParams.SolutionBytes(), start)
	}
	asked = make([]int, 0, 2000)
	flow := testFlow()
	if allocs := testing.AllocsPerRun(1000, func() { ch = is.Issue(flow) }); allocs != 0 {
		t.Errorf("Issue allocates %v objects with a carve function, want 0", allocs)
	}
}

// The table lookup must leave every draw where the closed form put it:
// same values and the same number of Float64 calls, for every difficulty.
func TestSampleSolveHashesMatchesClosedForm(t *testing.T) {
	closedForm := func(rnd *rand.Rand, p Params) (total uint64) {
		prob := math.Exp2(-float64(p.M))
		for i := 0; i < int(p.K); i++ {
			if prob >= 1 {
				total++
				continue
			}
			u := rnd.Float64()
			for u == 0 {
				u = rnd.Float64()
			}
			n := math.Ceil(math.Log(u) / math.Log(1-prob))
			switch {
			case n < 1:
				total++
			case n > math.MaxInt64:
				total += math.MaxInt64
			default:
				total += uint64(n)
			}
		}
		return total
	}
	for m := 0; m <= 255; m++ {
		p := Params{K: 3, M: uint8(m), L: 64}
		got, want := rand.New(rand.NewSource(int64(m))), rand.New(rand.NewSource(int64(m)))
		for i := 0; i < 200; i++ {
			if g, w := SampleSolveHashes(got, p), closedForm(want, p); g != w {
				t.Fatalf("m=%d draw %d: %d, closed form %d", m, i, g, w)
			}
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("m=%d: the two samplers consumed different numbers of draws", m)
		}
	}
}
