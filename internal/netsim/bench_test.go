package netsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// BenchmarkEngineScheduling measures the raw timer path: schedule a
// callback, fire it, schedule the next — the pattern every Poisson
// generator, RTO and idle timeout in the simulators follows. allocs/op is
// the headline number: with the event free-list it should be ~0 in steady
// state (the closure itself is the only allocation left, and a method
// value amortises even that).
func BenchmarkEngineScheduling(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		e.Schedule(time.Microsecond, tick)
	}
	e.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	if n == 0 {
		b.Fatal("no events fired")
	}
}

// benchSink counts deliveries.
type benchSink struct {
	addr Addr
	got  int
}

func (s *benchSink) Addr() Addr                { return s.addr }
func (s *benchSink) Handle(seg tcpkit.Segment) { s.got++ }

// BenchmarkPacketPath measures the steady-state flood path end to end:
// one spoofed-source SYN injected per iteration through SendFrom, the
// uplink leg, the arrival event, the downlink leg, and the delivery into
// the destination node — the exact per-packet work a SYN flood multiplies
// by hundreds of thousands. The pre-refactor engine paid two event
// allocations plus two closures per packet here; the pooled, kind-
// dispatched engine should be allocation-free once warm.
func BenchmarkPacketPath(b *testing.B) {
	eng := NewEngine()
	net := NewNetwork(eng)
	src := &benchSink{addr: Addr{10, 0, 0, 1}}
	dst := &benchSink{addr: Addr{10, 0, 0, 2}}
	// A fat, deep link so nothing drops and serialisation stays tiny.
	link := LinkConfig{RateBps: 1e12, Latency: time.Millisecond, MaxBacklog: time.Hour}
	if err := net.Attach(src, link); err != nil {
		b.Fatal(err)
	}
	if err := net.Attach(dst, link); err != nil {
		b.Fatal(err)
	}
	seg := tcpkit.Segment{
		Src: src.addr, Dst: dst.addr,
		SrcPort: 1234, DstPort: 80,
		Flags: tcpkit.FlagSYN, Window: 65535,
	}
	// Warm the pool and the link state.
	net.SendFrom(src.addr, seg)
	eng.Run(eng.Now() + time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SendFrom(src.addr, seg)
		// Drain: the arrival and delivery events both fire here.
		for eng.Step() {
		}
	}
	b.StopTimer()
	if dst.got < b.N {
		b.Fatalf("delivered %d of %d packets", dst.got, b.N)
	}
}

// holdNode is one station of BenchmarkEngineHold: every packet it is
// handed goes straight back out to a pseudo-randomly chosen peer, so the
// number of packets in flight never changes.
type holdNode struct {
	addr  Addr
	net   *Network
	peers []Addr
	rnd   uint32
	got   int
}

func (n *holdNode) Addr() Addr { return n.addr }

func (n *holdNode) Handle(seg tcpkit.Segment) {
	n.got++
	n.rnd = n.rnd*1664525 + 1013904223
	seg.Src, seg.Dst = n.addr, n.peers[n.rnd>>16%uint32(len(n.peers))]
	n.net.Send(seg)
}

// BenchmarkEngineHold is the classic hold model — pop one event, schedule
// one — at a fixed number of pending events, which BenchmarkEngineScheduling
// and BenchmarkPacketPath (one or two pending) cannot show. The live
// population is packets bouncing between eight nodes whose link latencies
// differ, so flight times spread over 0.5–4 ms; one op is one packet hop
// (arrival leg, deliver leg, resend). With cancelled=80 four fifths of the
// pending events are instead cancelled timers set 200 ms ahead — what a
// flood cell's queue really holds (SYN RTOs, response timeouts and idle
// timers, cancelled within milliseconds) — kept at strength by a ticker
// that sets and cancels one every 200 ms / population.
func BenchmarkEngineHold(b *testing.B) {
	const farAhead = 200 * time.Millisecond
	for _, pending := range []int{150, 600, 2400} {
		for _, cancelledPct := range []int{0, 80} {
			b.Run(fmt.Sprintf("pending=%d/cancelled=%d", pending, cancelledPct), func(b *testing.B) {
				eng := NewEngine()
				net := NewNetwork(eng)
				nodes := make([]*holdNode, 8)
				var addrs []Addr
				for i := range nodes {
					nodes[i] = &holdNode{addr: Addr{10, 0, 0, byte(1 + i)}, net: net, rnd: uint32(i)}
					addrs = append(addrs, nodes[i].addr)
					// Fat and deep: nothing drops, serialisation is a few ns.
					link := LinkConfig{RateBps: 1e12, Latency: time.Duration(1+i) * 250 * time.Microsecond, MaxBacklog: time.Hour}
					if err := net.Attach(nodes[i], link); err != nil {
						b.Fatal(err)
					}
				}
				for _, n := range nodes {
					n.peers = addrs
				}
				dead := pending * cancelledPct / 100
				for i := 0; i < pending-dead; i++ {
					nodes[i%len(nodes)].Handle(tcpkit.Segment{SrcPort: 1234, DstPort: 80, Flags: tcpkit.FlagACK})
				}
				if dead > 0 {
					var refill func()
					refill = func() {
						eng.Schedule(farAhead, func() { b.Error("cancelled timer fired") }).Cancel()
						eng.Schedule(farAhead/time.Duration(dead), refill)
					}
					refill()
					eng.Run(farAhead) // fill the far-ahead span once
				}
				delivered := func() (n int) {
					for _, nd := range nodes {
						n += nd.got
					}
					return n
				}
				if got := eng.Pending(); got < pending*9/10 || got > pending*11/10 {
					b.Fatalf("holding %d pending events, want %d ± 10%%", got, pending)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for target := delivered() + b.N; delivered() < target; {
					eng.Run(eng.Now() + time.Millisecond)
				}
				b.StopTimer()
				if got := eng.Pending(); got < pending*9/10 || got > pending*11/10 {
					b.Fatalf("ended with %d pending events, want %d ± 10%%", got, pending)
				}
			})
		}
	}
}

// deferBenchSink is a benchSink that takes deferred train legs.
type deferBenchSink struct{ benchSink }

func (s *deferBenchSink) HandleRun(_ tcpkit.Segment, _, _ time.Duration, n int) { s.got += n }

// BenchmarkTrain measures the paper's response path: one 100 kB response
// as 69 MSS segments over the 1 Gbps server link to a 100 Mbps client,
// sent as one SendTrain ("train"), as 69 Sends ("singles"), and as one
// SendTrain to a client that implements DeferNode ("deferred"), and driven
// by Run as a simulation is, so the in-place legs are taken. One op is one
// response; ns/segment and allocs/segment divide by the 69 segments.
func BenchmarkTrain(b *testing.B) {
	const segments, lastLen = 69, 100_000 - 68*1460
	for _, name := range []string{"train", "singles", "deferred"} {
		train := name != "singles"
		b.Run(name, func(b *testing.B) {
			eng := NewEngine()
			net := NewNetwork(eng)
			srv := &benchSink{addr: Addr{10, 0, 0, 1}}
			cli := &deferBenchSink{benchSink{addr: Addr{10, 0, 0, 2}}}
			var node Node = &cli.benchSink
			if name == "deferred" {
				node = cli
			}
			if err := net.Attach(srv, DefaultServerLink()); err != nil {
				b.Fatal(err)
			}
			if err := net.Attach(node, DefaultHostLink()); err != nil {
				b.Fatal(err)
			}
			seg := tcpkit.Segment{
				Src: srv.addr, Dst: cli.addr, SrcPort: 80, DstPort: 1234,
				Flags: tcpkit.FlagACK | tcpkit.FlagPSH, PayloadLen: 1460,
			}
			respond := func() {
				if train {
					net.SendTrain(seg, segments, lastLen)
					return
				}
				for k := 1; k < segments; k++ {
					net.Send(seg)
				}
				last := seg
				last.PayloadLen = lastLen
				net.Send(last)
			}
			// 69 segments take 8.3 ms of the client's downlink: a response
			// every 10 ms never queues behind the one before it there.
			const gap = 10 * time.Millisecond
			respond()
			eng.Run(eng.Now() + gap) // warm the pool and the link state
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				respond()
				eng.Run(eng.Now() + gap)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			eng.Run(eng.Now() + time.Second) // the last response is still in flight
			if cli.got != (b.N+1)*segments {
				b.Fatalf("delivered %d of %d segments", cli.got, (b.N+1)*segments)
			}
			n := float64(b.N * segments)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/segment")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/segment")
		})
	}
}
