package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

type sink struct {
	addr     Addr
	received []tcpkit.Segment
	at       []time.Duration
	eng      *Engine
}

func (s *sink) Addr() Addr { return s.addr }
func (s *sink) Handle(seg tcpkit.Segment) {
	s.received = append(s.received, seg)
	s.at = append(s.at, s.eng.Now())
}

func twoNodeNet(t *testing.T, link LinkConfig) (*Network, *sink, *sink) {
	t.Helper()
	eng := NewEngine()
	net := NewNetwork(eng)
	a := &sink{addr: Addr{10, 0, 0, 1}, eng: eng}
	b := &sink{addr: Addr{10, 0, 0, 2}, eng: eng}
	if err := net.Attach(a, link); err != nil {
		t.Fatalf("Attach(a): %v", err)
	}
	if err := net.Attach(b, link); err != nil {
		t.Fatalf("Attach(b): %v", err)
	}
	return net, a, b
}

func seg(src, dst Addr, payload int) tcpkit.Segment {
	return tcpkit.Segment{Src: src, Dst: dst, SrcPort: 1000, DstPort: 80, PayloadLen: payload}
}

func TestDeliveryLatency(t *testing.T) {
	link := LinkConfig{RateBps: 8e6, Latency: 10 * time.Millisecond, MaxBacklog: time.Second}
	net, a, b := twoNodeNet(t, link)
	// 1000-byte payload → 1040 wire bytes → 8320 bits → 1.04 ms per hop
	// serialisation, 20 ms propagation.
	net.Send(seg(a.addr, b.addr, 1000))
	net.Eng.Run(time.Second)
	if len(b.received) != 1 {
		t.Fatalf("received %d segments, want 1", len(b.received))
	}
	want := 2*1040*time.Microsecond + 20*time.Millisecond
	got := b.at[0]
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("delivered at %v, want ≈ %v", got, want)
	}
}

func TestBandwidthSerialisation(t *testing.T) {
	// Rate 1 Mbps: a 125-byte packet (1000 bits) takes 1 ms to serialise;
	// ten back-to-back packets finish uplink at 10 ms.
	link := LinkConfig{RateBps: 1e6, Latency: 0, MaxBacklog: time.Second}
	net, a, b := twoNodeNet(t, link)
	for i := 0; i < 10; i++ {
		net.Send(seg(a.addr, b.addr, 125-40))
	}
	net.Eng.Run(time.Second)
	if len(b.received) != 10 {
		t.Fatalf("received %d segments, want 10", len(b.received))
	}
	last := b.at[len(b.at)-1]
	want := 11 * time.Millisecond // 10 ms uplink drain + 1 ms downlink for the last
	if last < want-time.Millisecond || last > want+2*time.Millisecond {
		t.Errorf("last delivery at %v, want ≈ %v", last, want)
	}
}

func TestDropTailOnBacklog(t *testing.T) {
	link := LinkConfig{RateBps: 1e6, Latency: 0, MaxBacklog: 5 * time.Millisecond}
	net, a, b := twoNodeNet(t, link)
	// Each 125-byte packet costs 1 ms of uplink; with 5 ms max backlog
	// only ~6 of 100 survive.
	for i := 0; i < 100; i++ {
		net.Send(seg(a.addr, b.addr, 125-40))
	}
	net.Eng.Run(time.Second)
	up, _, ok := net.Stats(a.addr)
	if !ok {
		t.Fatal("Stats missing")
	}
	if up.Dropped == 0 {
		t.Error("no uplink drops under overload")
	}
	if got := len(b.received); got > 10 {
		t.Errorf("received %d segments, want ≤ 10 under 5ms backlog", got)
	}
	if up.SentPackets+up.Dropped != 100 {
		t.Errorf("sent %d + dropped %d ≠ 100", up.SentPackets, up.Dropped)
	}
}

func TestUnroutableDestination(t *testing.T) {
	link := DefaultHostLink()
	net, a, _ := twoNodeNet(t, link)
	net.Send(seg(a.addr, Addr{9, 9, 9, 9}, 0))
	net.Eng.Run(time.Second)
	if net.Unroutable() != 1 {
		t.Errorf("Unroutable = %d, want 1", net.Unroutable())
	}
}

func TestUnattachedSourceDropped(t *testing.T) {
	eng := NewEngine()
	net := NewNetwork(eng)
	b := &sink{addr: Addr{10, 0, 0, 2}, eng: eng}
	if err := net.Attach(b, DefaultHostLink()); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	net.Send(seg(Addr{1, 1, 1, 1}, b.addr, 0))
	eng.Run(time.Second)
	if len(b.received) != 0 {
		t.Error("segment from unattached source delivered")
	}
	if net.Unroutable() != 1 {
		t.Errorf("Unroutable = %d, want 1", net.Unroutable())
	}
}

func TestDuplicateAttachFails(t *testing.T) {
	eng := NewEngine()
	net := NewNetwork(eng)
	a := &sink{addr: Addr{10, 0, 0, 1}, eng: eng}
	if err := net.Attach(a, DefaultHostLink()); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := net.Attach(a, DefaultHostLink()); err == nil {
		t.Error("duplicate Attach succeeded")
	}
}

func TestTapsObserveTraffic(t *testing.T) {
	net, a, b := twoNodeNet(t, DefaultHostLink())
	var sends, delivers int
	net.RegisterTap(func(_ time.Duration, dir TapDir, _ tcpkit.Segment) {
		switch dir {
		case TapSend:
			sends++
		case TapDeliver:
			delivers++
		}
	})
	net.Send(seg(a.addr, b.addr, 100))
	net.Eng.Run(time.Second)
	if sends != 1 || delivers != 1 {
		t.Errorf("sends=%d delivers=%d, want 1/1", sends, delivers)
	}
}

func TestBidirectionalIndependentLinks(t *testing.T) {
	net, a, b := twoNodeNet(t, LinkConfig{RateBps: 1e6, Latency: 0, MaxBacklog: time.Second})
	// Saturate a→b; b→a must be unaffected.
	for i := 0; i < 50; i++ {
		net.Send(seg(a.addr, b.addr, 1000))
	}
	net.Send(seg(b.addr, a.addr, 0))
	net.Eng.Run(10 * time.Second)
	if len(a.received) != 1 {
		t.Fatalf("reverse segment not delivered")
	}
	if a.at[0] > 10*time.Millisecond {
		t.Errorf("reverse delivery at %v, should not queue behind forward traffic", a.at[0])
	}
}

func TestSendFromSpoofing(t *testing.T) {
	net, a, b := twoNodeNet(t, DefaultHostLink())
	// a emits a packet claiming to be from 99.9.9.9; it must be delivered
	// to b, and b's reply to the spoofed source must become unroutable.
	spoofed := seg(Addr{99, 9, 9, 9}, b.addr, 0)
	net.SendFrom(a.addr, spoofed)
	net.Eng.Run(time.Second)
	if len(b.received) != 1 {
		t.Fatalf("spoofed packet not delivered: %d", len(b.received))
	}
	reply := seg(b.addr, Addr{99, 9, 9, 9}, 0)
	net.Send(reply)
	net.Eng.Run(2 * time.Second)
	if net.Unroutable() != 1 {
		t.Errorf("Unroutable = %d, want 1", net.Unroutable())
	}
	// The spoofed emission consumed a's uplink.
	up, _, _ := net.Stats(a.addr)
	if up.SentPackets != 1 {
		t.Errorf("spoofer uplink packets = %d, want 1", up.SentPackets)
	}
}

// TestInPlaceDeliverRespectsRunBound: a deliver leg fires in place only
// when the Run in progress would have popped it — never after Run's until,
// and never from a bare Step, which has no bound at all.
func TestInPlaceDeliverRespectsRunBound(t *testing.T) {
	// 125 wire bytes at 1 Mbps: 1 ms on the uplink, arrival at the
	// downlink at 1 ms + 2 × 2 ms = 5 ms, delivery when the downlink
	// serialisation ends at 6 ms.
	link := LinkConfig{RateBps: 1e6, Latency: 2 * time.Millisecond, MaxBacklog: time.Second}
	const arrive, deliver = 5 * time.Millisecond, 6 * time.Millisecond
	send := func(t *testing.T) (*Engine, *sink) {
		net, a, b := twoNodeNet(t, link)
		net.Send(seg(a.addr, b.addr, 125-40))
		return net.Eng, b
	}
	// held checks that the arrival leg fired and its deliver leg waits in
	// the packet heap.
	held := func(t *testing.T, e *Engine, b *sink) {
		t.Helper()
		if st := e.Stats(); len(b.received) != 0 || st.InPlace != 0 || st.PacketLegsFired != 1 || len(e.packets) != 1 {
			t.Fatalf("received=%d stats=%+v packet heap=%d, want the deliver leg queued and nothing delivered",
				len(b.received), st, len(e.packets))
		}
	}
	delivered := func(t *testing.T, e *Engine, b *sink, inPlace uint64) {
		t.Helper()
		if len(b.received) != 1 || b.at[0] != deliver {
			t.Fatalf("received=%d at=%v, want one delivery at %v", len(b.received), b.at, deliver)
		}
		if st := e.Stats(); st.InPlace != inPlace || st.PacketLegsFired != 2 || e.Pending() != 0 {
			t.Fatalf("stats=%+v pending=%d, want in-place=%d of 2 packet legs and an empty queue", st, e.Pending(), inPlace)
		}
	}

	t.Run("Run until before the delivery", func(t *testing.T) {
		e, b := send(t)
		e.Run(arrive)
		held(t, e, b)
		e.Run(deliver - 1)
		held(t, e, b)
		e.Run(deliver)
		delivered(t, e, b, 0)
	})
	t.Run("Run until the delivery", func(t *testing.T) {
		e, b := send(t)
		e.Run(deliver)
		delivered(t, e, b, 1)
	})
	t.Run("bare Step", func(t *testing.T) {
		e, b := send(t)
		if !e.Step() {
			t.Fatal("no arrival to step")
		}
		held(t, e, b)
		if !e.Step() || e.Step() {
			t.Fatal("want exactly one more event: the queued deliver leg")
		}
		delivered(t, e, b, 0)
	})
	t.Run("Step after a Run", func(t *testing.T) {
		// The bound ends with the Run that set it.
		net, a, b := twoNodeNet(t, link)
		net.Eng.Run(time.Millisecond)
		net.Send(seg(a.addr, b.addr, 125-40))
		net.Eng.Step()
		if st := net.Eng.Stats(); st.InPlace != 0 || len(b.received) != 0 {
			t.Fatalf("Step after Run delivered in place: stats=%+v received=%d", st, len(b.received))
		}
	})
	t.Run("a timer due first keeps the leg in the heap", func(t *testing.T) {
		e, b := send(t)
		// Same instant as the delivery and scheduled before it: less puts
		// the timer first.
		seenAtTimer := -1
		e.ScheduleAt(deliver, func() { seenAtTimer = len(b.received) })
		e.Run(time.Second)
		if st := e.Stats(); st.InPlace != 0 || seenAtTimer != 0 || len(b.received) != 1 || b.at[0] != deliver {
			t.Fatalf("stats=%+v deliveries seen by the timer=%d received=%d, want a queued delivery behind the timer",
				st, seenAtTimer, len(b.received))
		}
	})
}

// TestSimultaneousArrivalsCanonicalOrder pins the tie-break rule: two
// packets from different sources engineered to arrive at the same instant
// deliver in source-address order, whatever order they were sent in.
func TestSimultaneousArrivalsCanonicalOrder(t *testing.T) {
	link := LinkConfig{RateBps: 1e9, Latency: 5 * time.Millisecond, MaxBacklog: time.Second}
	eng := NewEngine()
	net := NewNetwork(eng)
	// Higher-address source scheduled first: scheduling order must NOT
	// decide delivery order.
	hi := &sink{addr: Addr{10, 0, 0, 9}, eng: eng}
	lo := &sink{addr: Addr{10, 0, 0, 1}, eng: eng}
	dst := &sink{addr: Addr{10, 0, 0, 5}, eng: eng}
	for _, n := range []*sink{hi, lo, dst} {
		if err := net.Attach(n, link); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	eng.Schedule(10*time.Millisecond, func() { net.Send(seg(hi.addr, dst.addr, 64)) })
	eng.Schedule(10*time.Millisecond, func() { net.Send(seg(lo.addr, dst.addr, 64)) })
	net.Run(time.Second)
	if len(dst.received) != 2 {
		t.Fatalf("delivered %d, want 2", len(dst.received))
	}
	if dst.received[0].Src != lo.addr || dst.received[1].Src != hi.addr {
		t.Errorf("delivery order %v, %v; want low-address source first", dst.received[0].Src, dst.received[1].Src)
	}
}

// logNode appends each delivery to a log shared across nodes.
type logNode struct {
	addr Addr
	eng  *Engine
	log  *[]string
}

func (n *logNode) Addr() Addr { return n.addr }
func (n *logNode) Handle(seg tcpkit.Segment) {
	*n.log = append(*n.log, fmt.Sprintf("%v %v>%v #%d len=%d", n.eng.Now(), seg.Src, seg.Dst, seg.Seq, seg.PayloadLen))
}

// TestInterleavedSendersArriveInCanonicalOrder has two ports and a store
// slot send at the same instants, interleaved against address order: one
// segment each to y, then a burst of five to x, of which the uplink's
// backlog bound drops the last two. A port's burst is one train, cut to
// three segments by the drop. y's extra latency equals one segment's
// serialisation, so each sender's segment to y arrives together with its
// first to x, and the senders' k-th segments to x arrive together. At every
// shared instant the arrivals must fire in address order, and one sender's
// in send order, whatever the other senders sent in between.
func TestInterleavedSendersArriveInCanonicalOrder(t *testing.T) {
	const full = 60
	up := LinkConfig{RateBps: 8e6, Latency: time.Millisecond}
	ser := serialise(seg(Addr{}, Addr{}, full).WireSize(), up.RateBps)
	up.MaxBacklog = 3 * ser
	fast := LinkConfig{RateBps: 1e15, MaxBacklog: time.Second}

	eng := NewEngine()
	net := NewNetwork(eng)
	var log []string
	x := &logNode{addr: Addr{10, 0, 0, 1}, eng: eng, log: &log}
	y := &logNode{addr: Addr{10, 0, 0, 2}, eng: eng, log: &log}
	a := &logNode{addr: Addr{20, 0, 0, 1}, eng: eng, log: &log}
	b := &logNode{addr: Addr{40, 0, 0, 1}, eng: eng, log: &log}
	xLink, yLink := fast, fast
	xLink.Latency = time.Millisecond
	yLink.Latency = time.Millisecond + ser
	for _, at := range []struct {
		n    Node
		link LinkConfig
	}{{x, xLink}, {y, yLink}, {a, up}, {b, up}} {
		if err := net.Attach(at.n, at.link); err != nil {
			t.Fatal(err)
		}
	}
	store, err := net.AttachSources(3, Addr{30, 0, 0, 1}, up, func(int32, tcpkit.Segment) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Renumber([]int32{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	s := store.Addr(0)

	const rounds, gap = 2, 20 * time.Millisecond
	for r := 0; r < rounds; r++ {
		eng.ScheduleAt(time.Duration(r)*gap, func() {
			send := func(src, dst Addr, n uint32) {
				g := seg(src, dst, full)
				g.Seq = uint32(10*r) + n
				if src == s {
					store.SendAt(0, eng.Now(), g)
				} else {
					net.Send(g)
				}
			}
			for _, src := range []Addr{b.addr, s, a.addr} {
				send(src, y.addr, 1)
			}
			for _, src := range []Addr{b.addr, s, a.addr} {
				if src != s {
					g := seg(src, x.addr, full)
					g.Seq = uint32(10*r) + 2
					net.SendTrain(g, 5, 20)
					continue
				}
				for k := uint32(0); k < 5; k++ {
					send(src, x.addr, 2+k)
				}
			}
		})
	}
	eng.Run(time.Second)

	var want []string
	line := func(at time.Duration, src, dst Addr, n uint32) {
		want = append(want, fmt.Sprintf("%v %v>%v #%d len=%d", at, src, dst, n, full))
	}
	for r := 0; r < rounds; r++ {
		for k := 0; k < 3; k++ {
			at := time.Duration(r)*gap + time.Duration(k+2)*ser + 2*time.Millisecond
			for _, src := range []Addr{a.addr, s, b.addr} {
				if k == 0 {
					line(at, src, y.addr, uint32(10*r)+1)
				}
				n := uint32(10*r) + 2
				if src == s {
					n += uint32(k)
				}
				line(at, src, x.addr, n)
			}
		}
	}
	if got, exp := strings.Join(log, "\n"), strings.Join(want, "\n"); got != exp {
		t.Errorf("arrival order:\n%s\nwant:\n%s", got, exp)
	}
	for _, src := range []Addr{a.addr, b.addr} {
		if st, _, _ := net.Stats(src); st.Dropped != 2*rounds {
			t.Errorf("%v dropped %d, want %d", src, st.Dropped, 2*rounds)
		}
	}
	if st, _ := store.Stats(); st.Dropped != 2*rounds {
		t.Errorf("store dropped %d, want %d", st.Dropped, 2*rounds)
	}
}
