package serversim

import (
	"testing"

	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestAllocBudgetChallengedSYN is the machine-independent half of the
// benchmark's serversim.syn_allocs probes, on a server shaped like theirs
// (saturated, simulated crypto, every SYN from a fresh unattached peer):
// a challenged SYN — issue, cookie ISN, option bytes, SYN-ACK — costs no
// heap object beyond a 4 KiB bump chunk every couple of hundred
// challenges, and a cookie SYN-ACK or a plain SYN none at all (the
// half-open record is a value in the listen queue; it cost one object
// while the queue held pointers).
func TestAllocBudgetChallengedSYN(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	for _, tc := range []struct {
		defense sweep.Defense
		options []byte
		budget  float64
	}{
		{sweep.DefensePuzzles, nil, 0.05},
		{sweep.DefensePuzzles, defaultSynAckOptions, 0.05},
		{sweep.DefenseCookies, defaultSynAckOptions, 0},
		{sweep.DefenseNone, defaultSynAckOptions, 0},
	} {
		eng := netsim.NewEngine()
		srv, err := New(eng, netsim.NewNetwork(eng), netsim.DefaultServerLink(), Config{
			Addr: [4]byte{10, 0, 0, 1}, Defense: tc.defense, AlwaysChallenge: true,
			Backlog: 512, AcceptBacklog: 512, Workers: -1, Seed: 1,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", tc.defense, err)
		}
		syn := tcpkit.Segment{
			Src: netsim.Addr{11}, Dst: srv.Addr(), SrcPort: 5000, DstPort: 80,
			Flags: tcpkit.FlagSYN, Window: 65535, Options: tc.options,
		}
		i := 0
		handle := func() {
			i++
			syn.Src[1], syn.Src[2], syn.Src[3] = byte(i>>16), byte(i>>8), byte(i)
			syn.Seq = uint32(i)
			srv.Handle(syn)
		}
		// AllocsPerRun reports whole objects per call, so a call is a
		// batch and the quotient the amortised cost. The warm-up call fills
		// the listen queue and grows the metric series.
		const batch = 1000
		got := testing.AllocsPerRun(5, func() {
			for range batch {
				handle()
			}
		}) / batch
		if got > tc.budget {
			t.Errorf("%s, %d option bytes: %.3f allocs per SYN, budget %.2f", tc.defense, len(tc.options), got, tc.budget)
		}
		if got := srv.Metrics().SYNsReceived; got != uint64(i) {
			t.Errorf("%s: server counted %d of %d SYNs", tc.defense, got, i)
		}
	}
}
