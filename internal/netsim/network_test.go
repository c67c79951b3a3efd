package netsim

import (
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
// when the Run or RunBefore in progress would have popped it — never at or
// past RunBefore's end, never after Run's until, and never from a bare
// Step, which has no bound at all.
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

	t.Run("RunBefore ending at the delivery", func(t *testing.T) {
		e, b := send(t)
		e.RunBefore(deliver)
		held(t, e, b)
		e.RunBefore(deliver + 1)
		delivered(t, e, b, 0)
	})
	t.Run("RunBefore ending inside the serialisation", func(t *testing.T) {
		e, b := send(t)
		e.RunBefore(arrive + 1)
		held(t, e, b)
		if e.Now() != arrive {
			t.Fatalf("clock at %v, want %v: RunBefore must not advance past the last fired event", e.Now(), arrive)
		}
	})
	t.Run("Run until before the delivery", func(t *testing.T) {
		e, b := send(t)
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
	t.Run("RunBefore past the delivery", func(t *testing.T) {
		e, b := send(t)
		e.RunBefore(deliver + 1)
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
