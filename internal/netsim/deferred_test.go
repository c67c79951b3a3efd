package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// deferSink is a DeferNode that logs every delivery, deferred or not, as
// (time, sender, seq, length), and every Flush it makes.
type deferSink struct {
	addr Addr
	net  *Network
	log  []string
}

func (s *deferSink) Addr() Addr { return s.addr }

func (s *deferSink) Handle(seg tcpkit.Segment) { s.HandleAt(seg, s.net.Eng.Now()) }

func (s *deferSink) HandleAt(seg tcpkit.Segment, at time.Duration) {
	s.log = append(s.log, fmt.Sprintf("%v %v seq=%d len=%d", at, seg.Src, seg.Seq, seg.PayloadLen))
}

// flush is a timer's Flush, logged with how many deliveries preceded it.
func (s *deferSink) flush() {
	s.net.Flush(s.addr)
	s.log = append(s.log, fmt.Sprintf("flush at %v after %d deliveries", s.net.Eng.Now(), len(s.log)))
}

// deferWorld is the fixture of TestDeferredMatchesTapped: two 1 Gbps
// senders and two 100 Mbps deferring sinks, one with a 1 ms downlink
// backlog.
type deferWorld struct {
	net          *Network
	a, b         Addr
	client, tiny *deferSink
	// ends logs, after each piece of a Run, every sink's delivery count,
	// its link counters, the engine's pending count and the packet legs
	// fired or deferred so far.
	ends []string
}

// newDeferWorld builds the world, with a no-op tap registered when tapped
// (which turns deferral off), and schedules its traffic:
//
//   - from 0, sender a sends the client a response train every 5 ms, of
//     random length and last-segment size;
//   - 300 µs in, sender b's single segment lands on the client's downlink
//     while a's first train is still arriving;
//   - at 20 ms, both senders send the shallow sink a 69-segment train, which
//     interleave on its downlink and overflow its backlog mid-train;
//   - at flushAt the client flushes from a timer armed first of all.
func newDeferWorld(t *testing.T, tapped bool, flushAt time.Duration) *deferWorld {
	t.Helper()
	n := NewNetwork(NewEngine())
	w := &deferWorld{net: n, a: Addr{10, 0, 0, 1}, b: Addr{10, 0, 0, 2}}
	w.client = &deferSink{addr: Addr{10, 0, 1, 1}, net: n}
	w.tiny = &deferSink{addr: Addr{10, 0, 1, 2}, net: n}
	if tapped {
		n.RegisterTap(func(time.Duration, TapDir, tcpkit.Segment) {})
	}
	if flushAt > 0 {
		n.Eng.ScheduleAt(flushAt, w.client.flush)
	}
	for _, a := range []Addr{w.a, w.b} {
		if err := n.Attach(&deferSink{addr: a, net: n}, DefaultServerLink()); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Attach(w.client, DefaultHostLink()); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(w.tiny, LinkConfig{RateBps: 100e6, Latency: 2 * time.Millisecond, MaxBacklog: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	data := func(src, dst Addr, seq uint32) tcpkit.Segment {
		return tcpkit.Segment{Src: src, Dst: dst, SrcPort: 80, DstPort: 1000, Seq: seq, Flags: tcpkit.FlagACK | tcpkit.FlagPSH, PayloadLen: 1448}
	}
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		count, last := 2+rnd.Intn(68), 1+rnd.Intn(1448)
		if i == 0 {
			count = 69
		}
		n.Eng.ScheduleAt(time.Duration(i)*5*time.Millisecond, func() { n.SendTrain(data(w.a, w.client.addr, uint32(i)), count, last) })
	}
	n.Eng.ScheduleAt(300*time.Microsecond, func() { n.Send(data(w.b, w.client.addr, 100)) })
	n.Eng.ScheduleAt(20*time.Millisecond, func() {
		n.SendTrain(data(w.a, w.tiny.addr, 200), 69, 1448)
		n.SendTrain(data(w.b, w.tiny.addr, 201), 69, 1448)
	})
	return w
}

// run drives the world in Runs of 1.3 ms, each ending mid-train, and
// notes the state at every end.
func (w *deferWorld) run() {
	e := w.net.Eng
	for until := time.Duration(0); until < 60*time.Millisecond; until += 1300 * time.Microsecond {
		e.Run(until)
		st := e.Stats()
		line := fmt.Sprintf("%v pending=%d legs=%d", until, e.Pending(), st.PacketLegsFired+st.Deferred)
		for _, s := range []*deferSink{w.client, w.tiny} {
			_, down, _ := w.net.Stats(s.addr)
			line += fmt.Sprintf(" %v:%d %+v", s.addr, len(s.log), down)
		}
		w.ends = append(w.ends, line)
	}
}

// TestDeferredMatchesTapped: deliveries to a DeferNode are the same
// (segment, time) deliveries, in the same per-node order, whether its
// trains are deferred or — with a no-op tap registered — fired one event
// per leg; so are the link counters, the pending count and the packet
// legs fired or deferred at the end of every Run. The fixture covers a
// second sender's segment landing on the downlink mid-train, drop-tail
// drops mid-train, a Flush from a timer at exactly a deferred leg's time,
// and Runs that end mid-train.
func TestDeferredMatchesTapped(t *testing.T) {
	// A middle segment's delivery time, from a first tapped run.
	probe := newDeferWorld(t, true, 0)
	probe.run()
	flushAt, err := time.ParseDuration(strings.Fields(probe.client.log[30])[0])
	if err != nil {
		t.Fatal(err)
	}

	ref := newDeferWorld(t, true, flushAt)
	ref.run()
	got := newDeferWorld(t, false, flushAt)
	got.run()
	for _, s := range [][2]*deferSink{{got.client, ref.client}, {got.tiny, ref.tiny}} {
		if g, r := strings.Join(s[0].log, "\n"), strings.Join(s[1].log, "\n"); g != r {
			t.Errorf("%v deliveries differ:\ndeferred:\n%s\ntapped:\n%s", s[0].addr, g, r)
		}
	}
	if g, r := strings.Join(got.ends, "\n"), strings.Join(ref.ends, "\n"); g != r {
		t.Errorf("state at the ends of the Runs differs:\ndeferred:\n%s\ntapped:\n%s", g, r)
	}

	// The fixture reaches every case it exists for.
	st, rst := got.net.Eng.Stats(), ref.net.Eng.Stats()
	_, tiny, _ := got.net.Stats(got.tiny.addr)
	flush := fmt.Sprintf("flush at %v after 30 deliveries", flushAt)
	if st.Deferred == 0 || rst.Deferred != 0 || st.PacketLegsFired >= rst.PacketLegsFired/4 {
		t.Errorf("deferred %d legs firing %d, tapped %d firing %d: want most legs deferred, and none with a tap",
			st.Deferred, st.PacketLegsFired, rst.Deferred, rst.PacketLegsFired)
	}
	// Its 1 ms backlog holds nine segments: any more accepted came after a
	// drop.
	if tiny.Dropped == 0 || tiny.SentPackets <= 9 {
		t.Errorf("shallow downlink %+v: want drops mid-train", tiny)
	}
	if got.client.log[30] != flush || !strings.Contains(got.client.log[31], "[10 0 0 1] seq=0 len=1448") {
		t.Errorf("the client's log reads %q, %q; want %q, then a middle segment of the first train", got.client.log[30], got.client.log[31], flush)
	}
	if !strings.Contains(strings.Join(got.client.log[1:69], "\n"), "[10 0 0 2] seq=100") {
		t.Error("sender b's segment did not land inside a's first train")
	}
}

// TestDeferredStepDrainsAll: an engine driven by bare Steps hands every
// deferred leg over by the Step that finds nothing left to fire, so the
// sinks end with what per-segment delivery gives.
func TestDeferredStepDrainsAll(t *testing.T) {
	ref := newDeferWorld(t, true, 0)
	got := newDeferWorld(t, false, 0)
	for _, w := range []*deferWorld{ref, got} {
		for w.net.Eng.Step() {
		}
	}
	for _, s := range [][2]*deferSink{{got.client, ref.client}, {got.tiny, ref.tiny}} {
		if g, r := strings.Join(s[0].log, "\n"), strings.Join(s[1].log, "\n"); g != r {
			t.Errorf("%v deliveries differ:\ndeferred:\n%s\ntapped:\n%s", s[0].addr, g, r)
		}
	}
	if p := got.net.Eng.Pending(); p != 0 {
		t.Errorf("%d events pending after the last Step", p)
	}
}
