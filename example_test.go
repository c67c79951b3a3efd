package tcppuzzles_test

import (
	"bytes"
	"fmt"
	"time"

	"github.com/tcppuzzles/tcppuzzles"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// Example issues, solves and verifies a TCP client puzzle, with the
// difficulty chosen by the paper's Stackelberg equilibrium. A fixed secret
// and clock make the challenge, and so the solver's hash count, the same
// on every run.
func Example() {
	// 1. Pick the difficulty from the paper's measured model parameters
	//    (§4.4): w_av = 140630 hashes per 400 ms, α = 1.1 ⇒ (k, m) = (2, 17).
	nash, err := tcppuzzles.NashParams(140630, 1.1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Nash difficulty: %v — expected solve work %.0f hashes\n",
		nash, nash.ExpectedSolveHashes())

	// This example solves something gentler so it finishes instantly.
	demo := puzzle.Params{K: nash.K, M: 12, L: 32}

	// 2. The server issues a challenge bound to the connection's flow.
	now := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	issuer, err := puzzle.NewIssuer(
		puzzle.WithParams(demo),
		puzzle.WithSecret(bytes.Repeat([]byte{0x5a}, puzzle.SecretLen)),
		puzzle.WithClock(func() time.Time { return now }),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	flow := puzzle.FlowID{
		SrcIP: [4]byte{192, 0, 2, 7}, DstIP: [4]byte{198, 51, 100, 1},
		SrcPort: 52044, DstPort: 443, ISN: 0x1d95c0de,
	}
	ch := issuer.Issue(flow)

	// 3. The challenge rides the SYN-ACK as TCP option 0xfc.
	chOpt, err := tcpopt.EncodeChallenge(ch, true)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("challenge option: %d bytes on the wire\n", tcpopt.ChallengeWireSize(demo, true))

	// 4. The client parses and brute-forces the k solutions.
	parsed, err := tcpopt.ParseChallenge(chOpt)
	if err != nil {
		fmt.Println(err)
		return
	}
	sol, stats, err := puzzle.Solve(parsed.Challenge)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("solved with %d hash operations (expected %.0f)\n",
		stats.Hashes, demo.ExpectedSolveHashes())

	// 5. The solution rides the final ACK as TCP option 0xfd, re-carrying
	//    the MSS and window scale the stateless server forgot.
	solOpt, err := tcpopt.EncodeSolution(tcpopt.SolutionBlock{
		MSS: 1460, WScale: 7, HasTimestamp: true, Solution: sol,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	blk, err := tcpopt.ParseSolution(solOpt, issuer.Params())
	if err != nil {
		fmt.Println(err)
		return
	}

	// 6. The server verifies statelessly and accepts the connection.
	info, err := issuer.VerifyDetailed(flow, blk.Solution)
	if err != nil {
		fmt.Println("verification failed:", err)
		return
	}
	fmt.Printf("verified with %d hash operations — connection accepted\n", info.Hashes)

	// A replay on a different flow is rejected.
	other := flow
	other.SrcPort++
	if err := issuer.Verify(other, blk.Solution); err != nil {
		fmt.Printf("replay on different flow rejected: %v\n", err)
	}
	// Output:
	// Nash difficulty: (k=2,m=17,l=64) — expected solve work 131072 hashes
	// challenge option: 16 bytes on the wire
	// solved with 9149 hash operations (expected 4096)
	// verified with 3 hash operations — connection accepted
	// replay on different flow rejected: puzzle: solution 1 fails 12-bit check: puzzle solution invalid
}
