package netsim

import (
	"fmt"
	"math/rand"
	"slices"
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

func (s *deferSink) Handle(seg tcpkit.Segment) { s.HandleRun(seg, s.net.Eng.Now(), 0, 1) }

func (s *deferSink) HandleRun(seg tcpkit.Segment, at, gap time.Duration, n int) {
	for k := 0; k < n; k++ {
		s.log = append(s.log, fmt.Sprintf("%v %v seq=%d len=%d", at+time.Duration(k)*gap, seg.Src, seg.Seq, seg.PayloadLen))
	}
}

// flush is a timer's Flush, logged with how many deliveries preceded it.
func (s *deferSink) flush() {
	s.net.Flush(s.addr)
	s.log = append(s.log, fmt.Sprintf("flush at %v after %d deliveries", s.net.Eng.Now(), len(s.log)))
}

// deferWorld is the fixture of TestDeferredMatchesTapped: three 1 Gbps
// senders, a 100 Mbps one and a 50 Mbps one, two 100 Mbps deferring
// sinks, one with a 1 ms downlink backlog, and a 1 Gbps deferring sink.
type deferWorld struct {
	net                *Network
	a, b, c, d, e      Addr
	client, tiny, fast *deferSink
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
//   - at 20 ms, a and b send the shallow sink a 69-segment train, which
//     interleave on its downlink and overflow its backlog mid-train;
//   - at 40 ms, b and c send the fast sink a 69-segment train each, whose
//     arrivals tie on time segment for segment, and the 100 Mbps sender d
//     one whose segments, 119 µs apart, wait on the backlog the two leave
//     until it drains mid-train; at 47 ms d sends it a two- and a
//     three-segment train;
//   - at 50 ms, a alone sends the shallow sink a 69-segment train, which
//     overflows its backlog with no other train in the way;
//   - at 50.4 ms, the 50 Mbps sender e sends the shallow sink a
//     four-segment train whose first middle segment lands 55 µs after
//     a's last segment, within one service time of the backlog a's train
//     filled, and is dropped, while its second, a gap later, finds room:
//     the two arrive inside one Run piece, so they are offered as one
//     stretch whose first wait exceeds the backlog and whose last does
//     not;
//   - at flushAt the client flushes from a timer armed first of all.
func newDeferWorld(t *testing.T, tapped bool, flushAt time.Duration) *deferWorld {
	t.Helper()
	n := NewNetwork(NewEngine())
	w := &deferWorld{net: n, a: Addr{10, 0, 0, 1}, b: Addr{10, 0, 0, 2}, c: Addr{10, 0, 0, 3}, d: Addr{10, 0, 0, 4}, e: Addr{10, 0, 0, 5}}
	w.client = &deferSink{addr: Addr{10, 0, 1, 1}, net: n}
	w.tiny = &deferSink{addr: Addr{10, 0, 1, 2}, net: n}
	w.fast = &deferSink{addr: Addr{10, 0, 1, 3}, net: n}
	if tapped {
		n.RegisterTap(func(time.Duration, TapDir, tcpkit.Segment) {})
	}
	if flushAt > 0 {
		n.Eng.ScheduleAt(flushAt, w.client.flush)
	}
	for _, a := range []Addr{w.a, w.b, w.c} {
		if err := n.Attach(&deferSink{addr: a, net: n}, DefaultServerLink()); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Attach(&deferSink{addr: w.d, net: n}, DefaultHostLink()); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(&deferSink{addr: w.e, net: n}, LinkConfig{RateBps: 50e6, Latency: 2 * time.Millisecond, MaxBacklog: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(w.fast, DefaultServerLink()); err != nil {
		t.Fatal(err)
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
	n.Eng.ScheduleAt(40*time.Millisecond, func() {
		n.SendTrain(data(w.d, w.fast.addr, 300), 69, 1448)
		n.SendTrain(data(w.b, w.fast.addr, 301), 69, 1448)
		n.SendTrain(data(w.c, w.fast.addr, 302), 69, 1448)
	})
	n.Eng.ScheduleAt(47*time.Millisecond, func() {
		n.SendTrain(data(w.d, w.fast.addr, 303), 2, 100)
		n.SendTrain(data(w.d, w.fast.addr, 304), 3, 1448)
	})
	n.Eng.ScheduleAt(50*time.Millisecond, func() { n.SendTrain(data(w.a, w.tiny.addr, 400), 69, 1448) })
	n.Eng.ScheduleAt(50400*time.Microsecond, func() { n.SendTrain(data(w.e, w.tiny.addr, 401), 4, 1448) })
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
		for _, s := range w.sinks() {
			_, down, _ := w.net.Stats(s.addr)
			line += fmt.Sprintf(" %v:%d %+v", s.addr, len(s.log), down)
		}
		w.ends = append(w.ends, line)
	}
}

func (w *deferWorld) sinks() []*deferSink { return []*deferSink{w.client, w.tiny, w.fast} }

// TestDeferredMatchesTapped: deliveries to a DeferNode are the same
// (segment, time) deliveries, in the same per-node order, whether its
// trains are deferred or — with a no-op tap registered — fired one event
// per leg; so are the link counters, the pending count and the packet
// legs fired or deferred at the end of every Run. The fixture covers a
// second sender's segment landing on the downlink mid-train, drop-tail
// drops mid-train, a Flush from a timer at exactly a deferred leg's time,
// and Runs that end mid-train. Those are also the boundaries of the
// closed forms a train is offered and handed over in: a Run's end cuts a
// stretch; a runner-up train's next arrival ties on time and is ordered
// by sender; a backlog drains inside a stretch, whose legs then change
// spacing; a drop inside a stretch sends it a segment at a time, also
// when only its first wait exceeds the backlog; and a two-segment train
// has no middle.
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
	for i, s := range got.sinks() {
		if g, r := strings.Join(s.log, "\n"), strings.Join(ref.sinks()[i].log, "\n"); g != r {
			t.Errorf("%v deliveries differ:\ndeferred:\n%s\ntapped:\n%s", s.addr, g, r)
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
	if got := got.fast.delivered("seq=301", "seq=302"); got != strings.Repeat("[10 0 0 2][10 0 0 3]", 69) {
		t.Errorf("b's and c's trains reached the fast sink as %s; want them alternating from b's", got)
	}
	svc, gap := serialise(1488, 1e9), serialise(1488, 100e6)
	spacing := map[time.Duration]int{}
	times := got.fast.times("seq=300")
	for i := 1; i < len(times); i++ {
		spacing[times[i]-times[i-1]]++
	}
	if len(times) != 69 || spacing[svc] == 0 || spacing[gap] == 0 {
		t.Errorf("d's train reached the fast sink as %d segments spaced %v; want 69, some %v apart (queued) and some %v (idle)",
			len(times), spacing, svc, gap)
	}
	if n2, n3 := len(got.fast.times("seq=303")), len(got.fast.times("seq=304")); n2 != 2 || n3 != 3 {
		t.Errorf("the fast sink got %d and %d segments of the two- and three-segment trains; want 2 and 3", n2, n3)
	}
	if n := len(got.tiny.times("seq=400")); n <= 9 || n >= 69 {
		t.Errorf("the shallow sink got %d segments of a's lone train; want drops and more than its backlog holds", n)
	}
	// e's first segment lands inside a's train and its first middle
	// segment just after it: both find the backlog full. The second middle
	// segment and the last find room.
	if times := got.tiny.times("seq=401"); len(times) != 2 || times[1]-times[0] != serialise(1488, 100e6) {
		t.Errorf("e's train reached the shallow sink at %v; want its last two segments, one service time apart", times)
	}
}

// times returns the delivery times of the segments whose log lines
// contain seq, in order.
func (s *deferSink) times(seq string) []time.Duration {
	var out []time.Duration
	for _, line := range s.log {
		if f := strings.Fields(line); len(f) > 5 && f[5] == seq {
			at, _ := time.ParseDuration(f[0])
			out = append(out, at)
		}
	}
	return out
}

// delivered returns the senders of the segments whose log lines contain
// one of seqs, in order, concatenated.
func (s *deferSink) delivered(seqs ...string) string {
	var b strings.Builder
	for _, line := range s.log {
		if f := strings.Fields(line); len(f) > 5 && slices.Contains(seqs, f[5]) {
			b.WriteString(strings.Join(f[1:5], " "))
		}
	}
	return b.String()
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
	for i, s := range got.sinks() {
		if g, r := strings.Join(s.log, "\n"), strings.Join(ref.sinks()[i].log, "\n"); g != r {
			t.Errorf("%v deliveries differ:\ndeferred:\n%s\ntapped:\n%s", s.addr, g, r)
		}
	}
	if p := got.net.Eng.Pending(); p != 0 {
		t.Errorf("%d events pending after the last Step", p)
	}
}
