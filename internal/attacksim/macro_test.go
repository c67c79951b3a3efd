package attacksim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// synAckServer is a minimal victim: every SYN gets a SYN-ACK, so macro
// handshake bookkeeping (awaiting map, OnSynAck dispatch) is exercised
// without the full server simulator.
type synAckServer struct {
	addr netsim.Addr
	net  *netsim.Network
	syns int
}

func (s *synAckServer) Addr() netsim.Addr { return s.addr }
func (s *synAckServer) Handle(seg tcpkit.Segment) {
	if !seg.Flags.Has(tcpkit.FlagSYN) || seg.Flags.Has(tcpkit.FlagACK) {
		return
	}
	s.syns++
	s.net.Send(tcpkit.Segment{
		Src: s.addr, Dst: seg.Src, SrcPort: seg.DstPort, DstPort: seg.SrcPort,
		Seq: 9000, Ack: seg.Seq + 1, Flags: tcpkit.FlagSYN | tcpkit.FlagACK,
	})
}

func runMacro(t *testing.T, batch int) ([]float64, uint64, int) {
	t.Helper()
	network := netsim.NewNetwork(netsim.NewEngine())
	srv := &synAckServer{addr: netsim.Addr{10, 0, 0, 1}}
	srv.net = network
	if err := network.Attach(srv, netsim.DefaultServerLink()); err != nil {
		t.Fatal(err)
	}
	fleet, err := NewMacroFleet(network, MacroConfig{
		Sources:       25,
		BaseAddr:      [4]byte{10, 2, 0, 1},
		ServerAddr:    srv.addr,
		Attack:        "connflood",
		PerSourceRate: 20,
		StartAt:       time.Second,
		StopAt:        9 * time.Second,
		Seed:          5,
		batchSize:     batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	network.Run(10 * time.Second)
	up, _ := fleet.Store().Stats()
	return fleet.Metrics().Sent.Values(10 * time.Second), up.SentPackets, srv.syns
}

// For a stateless strategy against a server that answers at once,
// batching is an execution knob: any batch size must reproduce the same
// per-source ticks, packets, and handshakes.
func TestMacroBatchSizeNeutral(t *testing.T) {
	wantSent, wantPkts, wantSyns := runMacro(t, 1024)
	for _, batch := range []int{1, 3, 7} {
		sent, pkts, syns := runMacro(t, batch)
		if !reflect.DeepEqual(sent, wantSent) {
			t.Errorf("batch=%d: Sent series differs", batch)
		}
		if pkts != wantPkts || syns != wantSyns {
			t.Errorf("batch=%d: pkts=%d syns=%d, want %d/%d", batch, pkts, syns, wantPkts, wantSyns)
		}
	}
	if wantPkts == 0 || wantSyns == 0 {
		t.Fatalf("degenerate run: pkts=%d syns=%d", wantPkts, wantSyns)
	}
}

// wire runs a connection flood of 25 sources and lists every segment put
// on the wire, sorted: what each source sent, and when, whatever order
// equal instants fired in.
func wire(t *testing.T) []string {
	t.Helper()
	network := netsim.NewNetwork(netsim.NewEngine())
	srv := &synAckServer{addr: netsim.Addr{10, 0, 0, 1}, net: network}
	if err := network.Attach(srv, netsim.DefaultServerLink()); err != nil {
		t.Fatal(err)
	}
	var sent []string
	network.RegisterTap(func(at time.Duration, dir netsim.TapDir, seg tcpkit.Segment) {
		if dir == netsim.TapSend && seg.Src != srv.addr {
			sent = append(sent, fmt.Sprintf("%012d %v:%d seq=%d ack=%d %v", at, seg.Src, seg.SrcPort, seg.Seq, seg.Ack, seg.Flags))
		}
	})
	if _, err := NewMacroFleet(network, MacroConfig{
		Sources: 25, BaseAddr: [4]byte{10, 2, 0, 1}, ServerAddr: srv.addr, Attack: "connflood",
		PerSourceRate: 20, StartAt: time.Second, StopAt: 9 * time.Second, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	network.Run(10 * time.Second)
	slices.Sort(sent)
	return sent
}

// TestFleetWirePinned pins every segment a fleet puts on the wire — each
// source's address, ports, ISNs and send times — whatever slot holds it.
// The digest was taken while a per-bot execution still existed and sent
// exactly these 7,896 segments, one host object per source; no metric
// reads an ISN, so this is the test that catches an ISN stream seeded by
// slot instead of by source.
func TestFleetWirePinned(t *testing.T) {
	const pin = "236633bf78db931f"
	sent := wire(t)
	sum := sha256.Sum256([]byte(strings.Join(sent, "\n")))
	if got := hex.EncodeToString(sum[:8]); len(sent) != 7896 || got != pin {
		t.Errorf("fleet sent %d segments, digest %s; pinned 7896, %s", len(sent), got, pin)
	}
}

// TestFirstTickOrder checks the radix sort that numbers a fleet's slots
// against a stable comparison sort, on random populations: some with few
// distinct jitters, so that ties are the rule, all with the extreme jitters
// and with source indices up to netsim.MaxSourceSlots-1.
func TestFirstTickOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		// Distinct ascending source indices, as the fleet lists them.
		idx := []int{0, netsim.MaxSourceSlots - 1}
		for range rnd.Intn(3000) {
			idx = append(idx, rnd.Intn(netsim.MaxSourceSlots))
		}
		slices.Sort(idx)
		idx = slices.Compact(idx)

		jitters := int64(maxJitter)
		if trial%2 == 0 {
			jitters = 1 + rnd.Int63n(16) // forced ties
		}
		keys := make([]uint64, len(idx))
		for i, src := range idx {
			jitter := rnd.Int63n(jitters)
			switch i {
			case 1:
				jitter = int64(maxJitter) - 1
			case 2:
				jitter = 0
			}
			keys[i] = uint64(jitter)<<keyIndexBits | uint64(src)
		}
		want := slices.Clone(keys)
		sort.SliceStable(want, func(a, b int) bool { return want[a]>>keyIndexBits < want[b]>>keyIndexBits })
		sortFirstTicks(keys, make([]uint64, len(keys)))
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d (%d sources): radix order differs from the stable sort", trial, len(keys))
		}
	}
}

// NewMacroFleet refuses a per-source rate whose period truncates to zero
// nanoseconds, naming it, before it attaches the sources: the address range
// stays free for a valid fleet. One tick per nanosecond still builds.
func TestNewMacroFleetRejectsZeroPeriod(t *testing.T) {
	cases := []struct {
		name   string
		rate   float64
		reject string // the rate as the error names it; "" when accepted
	}{
		{"+Inf", math.Inf(1), "+Inf"},
		{"2e9", 2e9, "2e+09"},
		{"1e9", 1e9, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			network := netsim.NewNetwork(netsim.NewEngine())
			cfg := MacroConfig{
				Sources: 4, BaseAddr: [4]byte{10, 2, 0, 1}, ServerAddr: netsim.Addr{10, 0, 0, 1},
				Attack: "synflood", PerSourceRate: tc.rate, StopAt: time.Second, Seed: 5,
			}
			_, err := NewMacroFleet(network, cfg)
			if tc.reject == "" {
				if err != nil {
					t.Fatalf("NewMacroFleet(rate %v) = %v, want a fleet", tc.rate, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.reject) {
				t.Fatalf("NewMacroFleet(rate %v) error = %v, want one naming the rate %s", tc.rate, err, tc.reject)
			}
			cfg.PerSourceRate = 20
			if _, err := NewMacroFleet(network, cfg); err != nil {
				t.Errorf("a valid fleet over the rejected one's addresses: %v", err)
			}
		})
	}
}
