package puzzle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// easyParams keeps unit tests fast: a handful of hashes per solve.
var easyParams = Params{K: 2, M: 4, L: 64}

func testIssuer(t *testing.T, opts ...IssuerOption) *Issuer {
	t.Helper()
	base := []IssuerOption{WithParams(easyParams)}
	is, err := NewIssuer(append(base, opts...)...)
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	return is
}

func testFlow() FlowID {
	return FlowID{
		SrcIP:   [4]byte{10, 0, 0, 1},
		DstIP:   [4]byte{10, 0, 0, 2},
		SrcPort: 43210,
		DstPort: 80,
		ISN:     0xdeadbeef,
	}
}

func TestIssueSolveVerifyRoundTrip(t *testing.T) {
	is := testIssuer(t)
	flow := testFlow()
	ch := is.Issue(flow)

	if len(ch.Preimage) != easyParams.SolutionBytes() {
		t.Fatalf("preimage length = %d, want %d", len(ch.Preimage), easyParams.SolutionBytes())
	}
	sol, stats, err := Solve(ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if stats.Hashes == 0 {
		t.Error("Solve reported zero hashes")
	}
	if len(sol.Solutions) != int(easyParams.K) {
		t.Fatalf("got %d solutions, want %d", len(sol.Solutions), easyParams.K)
	}
	if err := is.Verify(flow, sol); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyDetailedAccounting(t *testing.T) {
	is := testIssuer(t)
	flow := testFlow()
	sol, _, err := Solve(is.Issue(flow))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	info, err := is.VerifyDetailed(flow, sol)
	if err != nil {
		t.Fatalf("VerifyDetailed: %v", err)
	}
	// One preimage hash plus one hash per solution.
	if want := 1 + int(easyParams.K); info.Hashes != want {
		t.Errorf("Hashes = %d, want %d", info.Hashes, want)
	}
	if info.Checked != int(easyParams.K) {
		t.Errorf("Checked = %d, want %d", info.Checked, easyParams.K)
	}
}

// TestVerifyRejectsWrongFlow: a solution is bound to the flow it was
// issued for. Each altered field moves the preimage, which is the exact
// binding; and Verify rejects the solution replayed on each altered flow.
// The replays run at k = 4, m = 12, where a solution passes for another
// preimage only by chance, with probability 2⁻¹² per sub-solution, so a
// replay is falsely accepted with probability 2⁻⁴⁸ (at easyParams' k = 2,
// m = 4 it was 2⁻⁸, and this test failed about once in 85 runs).
func TestVerifyRejectsWrongFlow(t *testing.T) {
	is := testIssuer(t, WithParams(Params{K: 4, M: 12, L: 64}))
	flow := testFlow()
	ch := is.Issue(flow)
	sol, _, err := Solve(ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for _, alter := range []struct {
		field string
		apply func(*FlowID)
	}{
		{"source port", func(f *FlowID) { f.SrcPort++ }},
		{"ISN", func(f *FlowID) { f.ISN++ }},
		{"source IP", func(f *FlowID) { f.SrcIP[3]++ }},
	} {
		other := flow
		alter.apply(&other)
		if bytes.Equal(is.PreimageFor(other, ch.Timestamp), ch.Preimage) {
			t.Errorf("a different %s leaves the preimage unchanged", alter.field)
		}
		if err := is.Verify(other, sol); err == nil {
			t.Errorf("Verify accepted a solution replayed with a different %s", alter.field)
		}
	}
}

func TestVerifyRejectsTamperedSolution(t *testing.T) {
	is := testIssuer(t)
	flow := testFlow()
	sol, _, err := Solve(is.Issue(flow))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// With m=4 a single bit flip has a 15/16 chance of invalidating a
	// solution; flip until verification fails or conclude the check is
	// broken after trying every bit of every solution.
	tampered := false
	for si := range sol.Solutions {
		for bit := 0; bit < int(easyParams.L); bit++ {
			mut := cloneSolution(sol)
			mut.Solutions[si][bit/8] ^= 1 << (bit % 8)
			if err := is.Verify(flow, mut); err != nil {
				if !errors.Is(err, ErrBadSolution) {
					t.Fatalf("Verify error = %v, want ErrBadSolution", err)
				}
				tampered = true
			}
		}
	}
	if !tampered {
		t.Error("no single-bit tamper was ever rejected")
	}
}

func cloneSolution(sol Solution) Solution {
	out := sol
	out.Solutions = make([][]byte, len(sol.Solutions))
	for i, s := range sol.Solutions {
		out.Solutions[i] = bytes.Clone(s)
	}
	return out
}

func TestVerifyRejectsWrongCountAndLength(t *testing.T) {
	is := testIssuer(t)
	flow := testFlow()
	sol, _, err := Solve(is.Issue(flow))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}

	short := cloneSolution(sol)
	short.Solutions = short.Solutions[:1]
	if err := is.Verify(flow, short); !errors.Is(err, ErrWrongCount) {
		t.Errorf("Verify(short) error = %v, want ErrWrongCount", err)
	}

	trunc := cloneSolution(sol)
	trunc.Solutions[0] = trunc.Solutions[0][:4]
	if err := is.Verify(flow, trunc); !errors.Is(err, ErrWrongLength) {
		t.Errorf("Verify(trunc) error = %v, want ErrWrongLength", err)
	}
}

func TestVerifyRejectsParamMismatch(t *testing.T) {
	is := testIssuer(t)
	flow := testFlow()
	sol, _, err := Solve(is.Issue(flow))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Retune the server; the old solution must no longer verify.
	if err := is.SetParams(Params{K: 2, M: 5, L: 64}); err != nil {
		t.Fatalf("SetParams: %v", err)
	}
	if err := is.Verify(flow, sol); !errors.Is(err, ErrParamMismatch) {
		t.Errorf("Verify error = %v, want ErrParamMismatch", err)
	}
}

// TestIssuerConcurrentSetParams: while one goroutine flips SetParams
// between two parameter sets, every challenge issued concurrently carries
// one of the two sets whole, with a preimage of that set's length, and a
// solution to either set verifies or fails only on the parameter
// mismatch. Run under -race, it is also the gate on the issuer's lock-free
// parameter word.
func TestIssuerConcurrentSetParams(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	sets := [2]Params{easyParams, {K: 3, M: 5, L: 128}}
	is := testIssuer(t, WithClock(func() time.Time { return now }))
	flow := testFlow()
	var sols [2]Solution
	for i, p := range sets {
		if err := is.SetParams(p); err != nil {
			t.Fatalf("SetParams(%v): %v", p, err)
		}
		sol, _, err := Solve(is.Issue(flow))
		if err != nil {
			t.Fatalf("Solve under %v: %v", p, err)
		}
		sols[i] = sol
	}

	stop, flipped := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 8)
	go func() {
		defer close(flipped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := is.SetParams(sets[i%2]); err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for range 2000 {
				ch := is.Issue(flow)
				if (ch.Params != sets[0] && ch.Params != sets[1]) || len(ch.Preimage) != ch.Params.SolutionBytes() {
					errs <- fmt.Errorf("challenge under %v with a %d-byte preimage", ch.Params, len(ch.Preimage))
					return
				}
				if _, err := is.VerifyDetailed(flow, sols[g%2]); err != nil && !errors.Is(err, ErrParamMismatch) {
					errs <- fmt.Errorf("verifying a solution under %v: %w", sols[g%2].Params, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flipped
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestVerifyExpiry(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	is := testIssuer(t, WithClock(clock), WithMaxAge(10*time.Second))
	flow := testFlow()
	sol, _, err := Solve(is.Issue(flow))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}

	now = now.Add(5 * time.Second)
	if err := is.Verify(flow, sol); err != nil {
		t.Fatalf("Verify within window: %v", err)
	}

	now = now.Add(20 * time.Second)
	if err := is.Verify(flow, sol); !errors.Is(err, ErrExpired) {
		t.Errorf("Verify after expiry error = %v, want ErrExpired", err)
	}
}

func TestVerifyFutureTimestamp(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	is := testIssuer(t, WithClock(func() time.Time { return now }))
	flow := testFlow()
	ch := is.IssueAt(flow, uint32(now.Unix())+120)
	sol, _, err := Solve(ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := is.Verify(flow, sol); !errors.Is(err, ErrFutureTimestamp) {
		t.Errorf("Verify error = %v, want ErrFutureTimestamp", err)
	}
}

func TestDistinctSecretsYieldDistinctPreimages(t *testing.T) {
	a := testIssuer(t)
	b := testIssuer(t)
	flow := testFlow()
	ts := uint32(time.Now().Unix())
	if bytes.Equal(a.IssueAt(flow, ts).Preimage, b.IssueAt(flow, ts).Preimage) {
		t.Error("two issuers with random secrets produced the same preimage")
	}
}

func TestIssueDeterministicForSameInputs(t *testing.T) {
	secret := bytes.Repeat([]byte{0x42}, SecretLen)
	a := testIssuer(t, WithSecret(secret))
	b := testIssuer(t, WithSecret(secret))
	flow := testFlow()
	if !bytes.Equal(a.IssueAt(flow, 7).Preimage, b.IssueAt(flow, 7).Preimage) {
		t.Error("same secret/ts/flow produced different preimages")
	}
	if bytes.Equal(a.IssueAt(flow, 7).Preimage, a.IssueAt(flow, 8).Preimage) {
		t.Error("different timestamps produced identical preimages")
	}
}

func TestSolutionCrossIndexRejected(t *testing.T) {
	// A valid solution for index 1 must not generally verify at index 2:
	// swap the two solutions of a k=2 puzzle and expect rejection for at
	// least one challenge (indices are bound into the digest).
	is := testIssuer(t)
	rejected := false
	for i := 0; i < 8 && !rejected; i++ {
		flow := testFlow()
		flow.ISN = uint32(i)
		sol, _, err := Solve(is.Issue(flow))
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		sol.Solutions[0], sol.Solutions[1] = sol.Solutions[1], sol.Solutions[0]
		if err := is.Verify(flow, sol); err != nil {
			rejected = true
		}
	}
	if !rejected {
		t.Error("swapped solution indices never rejected across 8 challenges")
	}
}

// Property: for random flows and timestamps, issue→solve→verify always
// succeeds under the issuer that created the challenge.
func TestRoundTripProperty(t *testing.T) {
	is := testIssuer(t, WithClock(func() time.Time { return time.Unix(1_700_000_000, 0) }))
	f := func(src, dst [4]byte, sp, dp uint16, isn uint32) bool {
		flow := FlowID{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, ISN: isn}
		sol, _, err := Solve(is.IssueAt(flow, 1_700_000_000))
		if err != nil {
			return false
		}
		return is.Verify(flow, sol) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolverBudget(t *testing.T) {
	is := testIssuer(t)
	// m=16 requires ~2^16 hashes per solution on average; a budget of 4 is
	// essentially guaranteed to run out.
	if err := is.SetParams(Params{K: 1, M: 16, L: 64}); err != nil {
		t.Fatalf("SetParams: %v", err)
	}
	ch := is.Issue(testFlow())
	sv := Solver{MaxHashes: 4}
	_, stats, err := sv.Solve(context.Background(), ch)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Solve error = %v, want ErrBudgetExhausted", err)
	}
	if stats.Hashes > 4 {
		t.Errorf("Solver spent %d hashes with budget 4", stats.Hashes)
	}
}

func TestSolverCancellation(t *testing.T) {
	is := testIssuer(t)
	if err := is.SetParams(Params{K: 1, M: 60, L: 64}); err != nil {
		t.Fatalf("SetParams: %v", err)
	}
	ch := is.Issue(testFlow())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sv Solver
	if _, _, err := sv.Solve(ctx, ch); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve error = %v, want context.Canceled", err)
	}
}

func TestSolverRandomStart(t *testing.T) {
	is := testIssuer(t)
	ch := is.Issue(testFlow())
	a := Solver{Rand: rand.New(rand.NewSource(1))}
	b := Solver{Rand: rand.New(rand.NewSource(2))}
	solA, _, err := a.Solve(context.Background(), ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	solB, _, err := b.Solve(context.Background(), ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := is.Verify(testFlow(), solA); err != nil {
		t.Errorf("Verify(a): %v", err)
	}
	if err := is.Verify(testFlow(), solB); err != nil {
		t.Errorf("Verify(b): %v", err)
	}
}

func TestSampleSolveHashesMean(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	p := Params{K: 2, M: 8, L: 64}
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(SampleSolveHashes(rnd, p))
	}
	mean := sum / n
	// Geometric mean is k·2^m = 512; the paper's scan-from-zero model is
	// k·2^(m-1). Accept the geometric expectation within 5%.
	want := float64(p.K) * 256
	if mean < want*0.95 || mean > want*1.05 {
		t.Errorf("sample mean = %.1f, want ≈ %.1f", mean, want)
	}
}

// A solve costs k·2^m hashes on average, twice the paper's ℓ(p) =
// k·2^(m−1) that Params.ExpectedSolveHashes returns: each of the k
// searches stops at its first candidate with m zero bits, both in a real
// Solver with random starts and in the simulator's SampleSolveHashes. The
// standard deviation of a 400-draw mean at (2, 10) is about 3.5 % of
// k·2^m, so the 15 % band holds at any seed.
func TestSolveCostIsTwiceExpectedSolveHashes(t *testing.T) {
	p := Params{K: 2, M: 10, L: 64}
	want := float64(p.K) * math.Exp2(float64(p.M))
	if got := 2 * p.ExpectedSolveHashes(); got != want {
		t.Fatalf("2·ExpectedSolveHashes() = %v, want k·2^m = %v", got, want)
	}
	is := testIssuer(t, WithParams(p))
	ch := is.Issue(testFlow())
	sv := Solver{Rand: rand.New(rand.NewSource(1))}
	rnd := rand.New(rand.NewSource(2))
	const n = 400
	var solved, sampled float64
	for i := 0; i < n; i++ {
		_, stats, err := sv.Solve(context.Background(), ch)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		solved += float64(stats.Hashes)
		sampled += float64(SampleSolveHashes(rnd, p))
	}
	for _, c := range []struct {
		name string
		mean float64
	}{{"Solver", solved / n}, {"SampleSolveHashes", sampled / n}} {
		if math.Abs(c.mean-want) > 0.15*want {
			t.Errorf("%s: mean of %d solves %.0f hashes, want within 15%% of k·2^m = %.0f", c.name, n, c.mean, want)
		}
	}
}

func TestFlowReverse(t *testing.T) {
	f := testFlow()
	r := f.Reverse()
	if r.SrcIP != f.DstIP || r.DstIP != f.SrcIP || r.SrcPort != f.DstPort ||
		r.DstPort != f.SrcPort || r.ISN != f.ISN {
		t.Errorf("Reverse() = %v", r)
	}
	if rr := r.Reverse(); rr != f {
		t.Errorf("double Reverse() = %v, want %v", rr, f)
	}
}
