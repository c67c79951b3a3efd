package attacksim

import (
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// TestAllocBudgetChallengedSynAck pins what a greedy solving
// connection-flood source pays for a challenged SYN-ACK — find the option,
// validate the challenge, sample the solve, queue it on the source's CPU:
// no heap object beyond a run-queue chunk every 256 solves. A closure and
// an engine event per queued solve cost 1.
func TestAllocBudgetChallengedSynAck(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	server := netsim.Addr{10, 0, 0, 1}
	fleet, err := NewMacroFleet(netsim.NewNetwork(netsim.NewEngine()), MacroConfig{
		Sources: 1, BaseAddr: [4]byte{10, 0, 2, 1}, ServerAddr: server, Attack: sweep.AttackConnFlood,
		Solves: true, Seed: 1,
	})
	if err != nil {
		t.Fatalf("NewMacroFleet: %v", err)
	}
	opts, err := tcpopt.MarshalChallenge(puzzle.Challenge{
		Params: puzzle.Params{K: 2, M: 17, L: 32}, Timestamp: 1, Preimage: []byte{1, 2, 3, 4},
	}, true)
	if err != nil {
		t.Fatalf("MarshalChallenge: %v", err)
	}
	synAck := tcpkit.Segment{
		Src: server, Dst: fleet.Store().Addr(0), SrcPort: 80, DstPort: 20000,
		Seq: 7, Ack: 2, Flags: tcpkit.FlagSYN | tcpkit.FlagACK, Window: 65535, Options: opts,
	}
	const batch = 1000 // AllocsPerRun reports whole objects per call
	got := testing.AllocsPerRun(5, func() {
		for range batch {
			fleet.awaiting[awaitKey(0, synAck.DstPort)] = 1 // what sendRealSYN registers
			fleet.handle(0, synAck)
		}
	}) / batch
	if got > 0.05 {
		t.Errorf("%.3f allocs per challenged SYN-ACK, budget 0.05", got)
	}
	if fleet.QueuedSolves() != 6*batch {
		t.Errorf("source queued %d solves of %d challenges", fleet.QueuedSolves(), 6*batch)
	}
}

// countNode counts deliveries.
type countNode struct {
	addr netsim.Addr
	got  int
}

func (n *countNode) Addr() netsim.Addr     { return n.addr }
func (n *countNode) Handle(tcpkit.Segment) { n.got++ }

// TestAllocBudgetMacroTick pins what a macro source's tick costs the heap:
// the strategy call through the fleet's context and the send it defers to
// its virtual instant, with the packet's way to the server. One round of a
// 10,000-source spoofed SYN flood stays under 0.05 objects per source,
// amortised; a closure per deferred send and a boxed context per tick
// cost 2.
func TestAllocBudgetMacroTick(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	// A link that never queues or drops: the round is the same every time.
	link := netsim.LinkConfig{RateBps: 1e12, Latency: time.Millisecond, MaxBacklog: time.Hour}
	network := netsim.NewNetwork(netsim.NewEngine())
	server := &countNode{addr: netsim.Addr{10, 0, 0, 1}}
	if err := network.Attach(server, link); err != nil {
		t.Fatal(err)
	}
	const sources = 10_000
	if _, err := NewMacroFleet(network, MacroConfig{
		Sources: sources, BaseAddr: [4]byte{10, 2, 0, 1}, ServerAddr: server.addr,
		Attack: sweep.AttackSYNFlood, PerSourceRate: 1, Link: link, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Round k ticks at k s + jitter (< 250 ms) and lands before (k+1) s.
	until := time.Second
	network.Run(until) // the first round grows the event pool and both heaps
	const runs = 5
	got := testing.AllocsPerRun(runs, func() {
		until += time.Second
		network.Run(until)
	}) / sources
	if got > 0.05 {
		t.Errorf("%.3f allocs per macro tick and deferred send, budget 0.05", got)
	}
	if rounds := 2 + runs; server.got != rounds*sources { // AllocsPerRun warms up once
		t.Errorf("server got %d SYNs in %d rounds of %d sources", server.got, rounds, sources)
	}
}
