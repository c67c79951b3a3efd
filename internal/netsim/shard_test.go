package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// echoNode is a traffic generator that also answers every delivery with a
// reply to its sender — enough feedback to make cross-shard causality
// matter. All of its decisions derive from its own seed. With trains set,
// a quarter of its sends are bursts of a length drawn from that seed, sent
// as one SendTrain — or, with unroll also set, as that many Sends.
type echoNode struct {
	addr   Addr
	eng    *Engine
	net    *Network
	rnd    *rand.Rand
	trains bool
	unroll bool

	peers   []Addr
	rate    float64
	stopAt  time.Duration
	sent    uint64
	recvd   uint64
	echoed  uint64
	lastAt  time.Duration
	byPeer  map[Addr]uint64
	sumSize uint64
}

func (n *echoNode) Addr() Addr { return n.addr }

func (n *echoNode) Handle(seg tcpkit.Segment) {
	n.recvd++
	n.byPeer[seg.Src]++
	n.sumSize += uint64(seg.WireSize())
	n.lastAt = n.eng.Now()
	// Echo data packets (not echoes of echoes, or the storm never ends).
	if seg.PayloadLen > 0 {
		n.echoed++
		n.net.Send(tcpkit.Segment{
			Src: n.addr, Dst: seg.Src,
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Flags: tcpkit.FlagACK,
		})
	}
}

func (n *echoNode) tick() {
	if n.eng.Now() >= n.stopAt {
		return
	}
	dst := n.peers[n.rnd.Intn(len(n.peers))]
	n.sent++
	seg := tcpkit.Segment{
		Src: n.addr, Dst: dst,
		SrcPort: 1000, DstPort: 80,
		PayloadLen: 100 + n.rnd.Intn(900),
	}
	if !n.trains || n.rnd.Intn(4) != 0 {
		n.net.Send(seg)
	} else if count, lastLen := 1+n.rnd.Intn(12), n.rnd.Intn(seg.PayloadLen+1); !n.unroll {
		n.net.SendTrain(seg, count, lastLen)
	} else {
		for k := 1; k < count; k++ {
			n.net.Send(seg)
		}
		seg.PayloadLen = lastLen
		n.net.Send(seg)
	}
	n.eng.Schedule(time.Duration(n.rnd.ExpFloat64()/n.rate*float64(time.Second)), n.tick)
}

// echoFingerprint runs a mesh of echo nodes on the given shard count and
// returns a per-node summary string capturing counts, byte sums, arrival
// order effects (lastAt) and link statistics.
func echoFingerprint(t *testing.T, shards, nodes int, link LinkConfig, dur time.Duration) string {
	t.Helper()
	out, _ := echoMeshRun(t, shards, nodes, link, dur, 100, false)
	return out
}

// echoMeshRun is the configurable core behind echoFingerprint, the barrier
// tests and the fuzz target: seed offsets every node's RNG stream, the
// nodes send part of their traffic as trains (unrolled into single sends
// when unroll is set), and the run's network comes back alongside the
// fingerprint.
func echoMeshRun(tb testing.TB, shards, nodes int, link LinkConfig, dur time.Duration, seed int64, unroll bool) (string, *Network) {
	if t, ok := tb.(*testing.T); ok {
		t.Helper()
	}
	net := NewSharded(shards)
	addrs := make([]Addr, nodes)
	for i := range addrs {
		addrs[i] = Addr{10, 0, byte(i / 200), byte(1 + i%200)}
	}
	ens := make([]*echoNode, nodes)
	for i, addr := range addrs {
		var peers []Addr
		for _, p := range addrs {
			if p != addr {
				peers = append(peers, p)
			}
		}
		ens[i] = &echoNode{
			addr: addr, eng: net.EngineFor(addr), net: net,
			rnd: rand.New(rand.NewSource(seed + int64(i))), peers: peers,
			trains: true, unroll: unroll,
			rate: 200, stopAt: dur, byPeer: map[Addr]uint64{},
		}
		if err := net.Attach(ens[i], link); err != nil {
			tb.Fatalf("Attach(%v): %v", addr, err)
		}
		ens[i].eng.Schedule(0, ens[i].tick)
	}
	net.Run(dur)

	out := ""
	for i, n := range ens {
		out += fmt.Sprintf("node%d sent=%d recvd=%d echoed=%d bytes=%d last=%v\n",
			i, n.sent, n.recvd, n.echoed, n.sumSize, n.lastAt)
		for _, p := range addrs {
			out += fmt.Sprintf("  from %v: %d\n", p, n.byPeer[p])
		}
		up, down, _ := net.Stats(n.addr)
		out += fmt.Sprintf("  up=%+v down=%+v\n", up, down)
	}
	out += fmt.Sprintf("unroutable=%d\n", net.Unroutable())
	return out, net
}

// TestShardedEchoMeshByteIdentical is the engine-level half of the repo's
// sharding invariant: a chatty mesh with feedback loops, tight links and
// drops must produce identical per-node state at every shard count,
// including shard counts exceeding the node count.
func TestShardedEchoMeshByteIdentical(t *testing.T) {
	// A slow, shallow link forces queueing and drop-tail decisions, the
	// state most sensitive to delivery ordering.
	link := LinkConfig{RateBps: 2e6, Latency: 2 * time.Millisecond, MaxBacklog: 20 * time.Millisecond}
	want := echoFingerprint(t, 1, 6, link, 3*time.Second)
	for _, shards := range []int{2, 3, 4, 8} {
		got := echoFingerprint(t, shards, 6, link, 3*time.Second)
		if got != want {
			t.Errorf("shards=%d diverged from shards=1:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// TestShardedZeroLatencyFallsBackToMerge covers the degenerate lookahead:
// with zero propagation delay the conservative windows collapse, and Run
// must fall back to the serial merge with identical results.
func TestShardedZeroLatencyFallsBackToMerge(t *testing.T) {
	link := LinkConfig{RateBps: 5e6, Latency: 0, MaxBacklog: 10 * time.Millisecond}
	want := echoFingerprint(t, 1, 4, link, 2*time.Second)
	got := echoFingerprint(t, 4, 4, link, 2*time.Second)
	if got != want {
		t.Errorf("zero-latency sharded run diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// FuzzShardedEquivalence drives lookaheads()' windowed/merged choice over
// random topologies: any divergence between a sharded run and the serial
// run of the same mesh is a finding, and so is any divergence between the
// sharded run and the same sharded mesh with every train unrolled into
// single sends — in the fingerprint, the events fired per shard, the
// window count, or the deliver legs fired in place. The checked-in corpus
// seeds the regimes: healthy lookahead, microsecond latency (tight
// windows), zero latency (runMerged), and sub-millisecond latency at
// three shards.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint32(2000), int64(100))
	f.Add(uint8(4), uint8(6), uint32(50), int64(7))
	f.Add(uint8(3), uint8(5), uint32(0), int64(42))
	f.Add(uint8(8), uint8(8), uint32(800), int64(1))
	f.Fuzz(func(t *testing.T, shards, nodes uint8, latencyUs uint32, seed int64) {
		ns := 2 + int(shards)%7                                   // 2..8 shards
		nn := 2 + int(nodes)%7                                    // 2..8 nodes
		lat := time.Duration(latencyUs%20_000) * time.Microsecond // 0..20ms
		link := LinkConfig{RateBps: 5e6, Latency: lat, MaxBacklog: 10 * time.Millisecond}
		dur := 500 * time.Millisecond
		want, _ := echoMeshRun(t, 1, nn, link, dur, seed, false)
		got, net := echoMeshRun(t, ns, nn, link, dur, seed, false)
		if got != want {
			t.Fatalf("shards=%d nodes=%d latency=%v seed=%d: sharded run diverged:\n got:\n%s\nwant:\n%s",
				ns, nn, lat, seed, got, want)
		}
		unrolled, singles := echoMeshRun(t, ns, nn, link, dur, seed, true)
		if unrolled != got {
			t.Fatalf("shards=%d nodes=%d latency=%v seed=%d: unrolled trains diverged:\n got:\n%s\nwant:\n%s",
				ns, nn, lat, seed, unrolled, got)
		}
		st, sst := net.ShardStats(), singles.ShardStats()
		if fmt.Sprint(st.Events, st.Windows, net.EngineStats().InPlace) != fmt.Sprint(sst.Events, sst.Windows, singles.EngineStats().InPlace) {
			t.Fatalf("shards=%d nodes=%d latency=%v seed=%d: trains fired %v in %d windows, %d delivered in place; singles %v in %d, %d",
				ns, nn, lat, seed, st.Events, st.Windows, net.EngineStats().InPlace, sst.Events, sst.Windows, singles.EngineStats().InPlace)
		}
	})
}

// TestShardedSimultaneousArrivalsCanonicalOrder pins the tie-break rule:
// two packets from different sources engineered to arrive at the same
// instant deliver in source-address order at every shard count.
func TestShardedSimultaneousArrivalsCanonicalOrder(t *testing.T) {
	link := LinkConfig{RateBps: 1e9, Latency: 5 * time.Millisecond, MaxBacklog: time.Second}
	for _, shards := range []int{1, 2, 4} {
		net := NewSharded(shards)
		// Higher-address source scheduled first: scheduling order must NOT
		// decide delivery order.
		hi := &sink{addr: Addr{10, 0, 0, 9}}
		lo := &sink{addr: Addr{10, 0, 0, 1}}
		dst := &sink{addr: Addr{10, 0, 0, 5}}
		for _, n := range []*sink{hi, lo, dst} {
			n.eng = net.EngineFor(n.addr)
			if err := net.Attach(n, link); err != nil {
				t.Fatalf("Attach: %v", err)
			}
		}
		net.EngineFor(hi.addr).Schedule(10*time.Millisecond, func() {
			net.Send(seg(hi.addr, dst.addr, 64))
		})
		net.EngineFor(lo.addr).Schedule(10*time.Millisecond, func() {
			net.Send(seg(lo.addr, dst.addr, 64))
		})
		net.Run(time.Second)
		if len(dst.received) != 2 {
			t.Fatalf("shards=%d: delivered %d, want 2", shards, len(dst.received))
		}
		if dst.received[0].Src != lo.addr || dst.received[1].Src != hi.addr {
			t.Errorf("shards=%d: delivery order %v, %v; want low-address source first",
				shards, dst.received[0].Src, dst.received[1].Src)
		}
	}
}

// TestShardedRunMatchesEngineRunBoundary checks the until-inclusive
// boundary semantics match Engine.Run: events at exactly `until` fire, and
// the clocks land on until.
func TestShardedRunMatchesEngineRunBoundary(t *testing.T) {
	net := NewSharded(2)
	a := &sink{addr: Addr{10, 0, 0, 1}}
	b := &sink{addr: Addr{10, 7, 0, 2}} // hashes away from a with high odds; placement is irrelevant to the assertion
	a.eng = net.EngineFor(a.addr)
	b.eng = net.EngineFor(b.addr)
	if err := net.Attach(a, DefaultHostLink()); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(b, DefaultHostLink()); err != nil {
		t.Fatal(err)
	}
	fired := 0
	a.eng.ScheduleAt(time.Second, func() { fired++ })
	b.eng.ScheduleAt(time.Second, func() {
		fired++
		// Nested same-time event must also fire, as with Engine.Run.
		b.eng.ScheduleAt(time.Second, func() { fired++ })
	})
	a.eng.ScheduleAt(time.Second+time.Nanosecond, func() { fired++ })
	net.Run(time.Second)
	if fired != 3 {
		t.Errorf("fired %d events at the boundary, want 3", fired)
	}
	for i := 0; i < net.Shards(); i++ {
		if got := net.Engine(i).Now(); got != time.Second {
			t.Errorf("shard %d clock = %v, want 1s", i, got)
		}
	}
}

// hetFingerprint runs a two-class mesh — one fast-link node on shard 0,
// slow-link nodes on shard 1 (everything on the one shard of a serial
// run) — and returns its state fingerprint plus the window count.
func hetFingerprint(t *testing.T, shards int) (string, int) {
	t.Helper()
	fast := LinkConfig{RateBps: 1e9, Latency: 2 * time.Millisecond, MaxBacklog: 100 * time.Millisecond}
	slow := LinkConfig{RateBps: 10e6, Latency: 20 * time.Millisecond, MaxBacklog: 100 * time.Millisecond}
	net := NewSharded(shards)
	const nodes = 5
	addrs := make([]Addr, nodes)
	for i := range addrs {
		addrs[i] = Addr{10, 0, 0, byte(1 + i)}
		shard := shards - 1
		if i == 0 {
			shard = 0
		}
		if err := net.Pin(addrs[i], shard); err != nil {
			t.Fatalf("Pin: %v", err)
		}
	}
	ens := make([]*echoNode, nodes)
	for i, addr := range addrs {
		var peers []Addr
		for _, p := range addrs {
			if p != addr {
				peers = append(peers, p)
			}
		}
		ens[i] = &echoNode{
			addr: addr, eng: net.EngineFor(addr), net: net,
			rnd: rand.New(rand.NewSource(int64(100 + i))), peers: peers,
			rate: 150, stopAt: 3 * time.Second, byPeer: map[Addr]uint64{},
		}
		link := slow
		if i == 0 {
			link = fast
		}
		if err := net.Attach(ens[i], link); err != nil {
			t.Fatalf("Attach(%v): %v", addr, err)
		}
		ens[i].eng.Schedule(0, ens[i].tick)
	}
	net.Run(3 * time.Second)

	return echoSummary(ens), net.ShardStats().Windows
}

// echoSummary is the per-node state line of a finished echo mesh.
func echoSummary(ens []*echoNode) string {
	out := ""
	for i, n := range ens {
		out += fmt.Sprintf("node%d sent=%d recvd=%d echoed=%d bytes=%d last=%v\n",
			i, n.sent, n.recvd, n.echoed, n.sumSize, n.lastAt)
	}
	return out
}

// TestPerPairLookaheadFewerWindows is the adaptive-widening contract on a
// heterogeneous topology: one fast 2 ms link (the server class) pinned to
// shard 0 and slow 20 ms links on shard 1. A global minimum lookahead
// would be 4 ms — the fast link throttling everyone, 682 windows when the
// scheduler still had that mode — while the per-pair bounds are 22 ms in
// both directions: the run must take exactly the pinned 135 windows, with
// bytes identical to the serial engine's.
func TestPerPairLookaheadFewerWindows(t *testing.T) {
	wantFP, _ := hetFingerprint(t, 1)
	gotFP, windows := hetFingerprint(t, 2)
	if gotFP != wantFP {
		t.Errorf("per-pair windows diverged from the serial run:\n got:\n%s\nwant:\n%s", gotFP, wantFP)
	}
	if windows != 135 {
		t.Errorf("per-pair lookahead ran %d windows, want 135", windows)
	}
}

// TestLookaheadStatsObserved: windowed runs must report the applied
// window widths, and on the heterogeneous mesh the per-pair widths must
// exceed the legacy global minimum (4 ms here).
func TestLookaheadStatsObserved(t *testing.T) {
	net := NewSharded(4)
	statsMesh(t, net, 8)
	net.Run(2 * time.Second)
	st := net.ShardStats()
	if st.LookaheadMin <= 0 || st.LookaheadMean < st.LookaheadMin || st.LookaheadMax < st.LookaheadMean {
		t.Errorf("lookahead stats not ordered: min=%v mean=%v max=%v",
			st.LookaheadMin, st.LookaheadMean, st.LookaheadMax)
	}
	// statsMesh links are homogeneous 2 ms, so every window is exactly
	// 4 ms wide except the horizon-capped ones, which are narrower.
	if st.LookaheadMax != 4*time.Millisecond {
		t.Errorf("LookaheadMax = %v, want 4ms on a homogeneous 2ms mesh", st.LookaheadMax)
	}
}

// TestPinPlacesNode verifies explicit placement and its reservation
// behaviour for unpinned nodes.
func TestPinPlacesNode(t *testing.T) {
	net := NewSharded(4)
	srv := Addr{10, 0, 0, 1}
	if err := net.Pin(srv, 0); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if got := net.EngineFor(srv); got != net.Engine(0) {
		t.Error("pinned address not on shard 0")
	}
	// Unpinned nodes must avoid the reserved shard.
	for i := 0; i < 32; i++ {
		addr := Addr{10, 1, 0, byte(1 + i)}
		if net.EngineFor(addr) == net.Engine(0) {
			t.Errorf("unpinned %v landed on the pinned shard", addr)
		}
	}
	if err := net.Pin(Addr{10, 0, 0, 2}, 7); err == nil {
		t.Error("out-of-range pin accepted")
	}
}

// statsMesh builds a small echo mesh on net and returns nothing; the
// caller runs the network and reads ShardStats.
func statsMesh(t *testing.T, net *Network, nodes int) {
	t.Helper()
	link := LinkConfig{RateBps: 100e6, Latency: 2 * time.Millisecond, MaxBacklog: 100 * time.Millisecond}
	addrs := make([]Addr, nodes)
	for i := range addrs {
		addrs[i] = Addr{10, 0, 0, byte(1 + i)}
	}
	for i, addr := range addrs {
		var peers []Addr
		for _, p := range addrs {
			if p != addr {
				peers = append(peers, p)
			}
		}
		n := &echoNode{
			addr: addr, eng: net.EngineFor(addr), net: net,
			rnd: rand.New(rand.NewSource(int64(100 + i))), peers: peers,
			rate: 100, stopAt: 2 * time.Second, byPeer: map[Addr]uint64{},
		}
		if err := net.Attach(n, link); err != nil {
			t.Fatalf("Attach(%v): %v", addr, err)
		}
		n.eng.Schedule(0, n.tick)
	}
}

// ShardStats is observability, not modelling: event counts must cover the
// whole run deterministically, and sharded runs must report their windows
// and per-shard barrier waits.
func TestShardStatsReportLoadBalance(t *testing.T) {
	serialNet := NewSharded(1)
	statsMesh(t, serialNet, 8)
	serialNet.Run(2 * time.Second)
	serialTotal := serialNet.ShardStats().Events[0]
	if serialTotal == 0 {
		t.Fatal("serial run fired no events")
	}

	net := NewSharded(4)
	statsMesh(t, net, 8)
	net.Run(2 * time.Second)
	st := net.ShardStats()
	if len(st.Events) != 4 {
		t.Fatalf("Events has %d shards, want 4", len(st.Events))
	}
	var total uint64
	busy := 0
	for _, n := range st.Events {
		total += n
		if n > 0 {
			busy++
		}
	}
	if total != serialTotal {
		t.Errorf("sharded events = %d, serial = %d; the same run must fire the same events", total, serialTotal)
	}
	if busy < 2 {
		t.Errorf("only %d shards fired events; mesh placement should spread load", busy)
	}
	if st.Windows == 0 {
		t.Error("sharded run reports zero windows")
	}
	if len(st.BarrierWait) != 4 {
		t.Errorf("BarrierWait has %d entries, want 4", len(st.BarrierWait))
	}
}
