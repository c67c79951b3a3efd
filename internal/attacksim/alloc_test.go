package attacksim

import (
	"testing"

	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// TestAllocBudgetChallengedSynAck pins what a greedy solving
// connection-flood bot pays for a challenged SYN-ACK — find the option,
// validate the challenge, sample the solve, queue it: no heap object
// beyond a run-queue chunk every 256 solves.
func TestAllocBudgetChallengedSynAck(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	server := netsim.Addr{10, 0, 0, 1}
	eng := netsim.NewEngine()
	bot, err := New(eng, netsim.NewNetwork(eng), netsim.DefaultHostLink(), Config{
		Addr: [4]byte{10, 0, 2, 1}, ServerAddr: server, Attack: sweep.AttackConnFlood,
		Solves: true, SimulatedCrypto: true, Seed: 1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	opts, err := tcpopt.MarshalChallenge(puzzle.Challenge{
		Params: puzzle.Params{K: 2, M: 17, L: 32}, Timestamp: 1, Preimage: []byte{1, 2, 3, 4},
	}, true)
	if err != nil {
		t.Fatalf("MarshalChallenge: %v", err)
	}
	synAck := tcpkit.Segment{
		Src: server, Dst: bot.Addr(), SrcPort: 80, DstPort: 20000,
		Seq: 7, Ack: 2, Flags: tcpkit.FlagSYN | tcpkit.FlagACK, Window: 65535, Options: opts,
	}
	const batch = 1000 // AllocsPerRun reports whole objects per call
	got := testing.AllocsPerRun(5, func() {
		for range batch {
			bot.awaiting[synAck.DstPort] = 1 // what sendRealSYN registers
			bot.Handle(synAck)
		}
	}) / batch
	if got > 0.05 {
		t.Errorf("%.3f allocs per challenged SYN-ACK, budget 0.05", got)
	}
	if bot.QueuedSolves() != 6*batch {
		t.Errorf("bot queued %d solves of %d challenges", bot.QueuedSolves(), 6*batch)
	}
}
