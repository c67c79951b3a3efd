package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// trainWorld is the fixture of TestTrainMatchesSingles: hosts that send
// bursts on their own RNG streams, either as one SendTrain each or
// unrolled into per-segment Sends, over the paths a train can take.
type trainWorld struct {
	net     *Network
	singles bool
	stopAt  time.Duration
	hosts   []*trainHost
	store   *SourceStore
	taps    []string
	tapAt   []time.Duration // the taps' times, in the order they fired
	log     []string        // the store's deliveries, in order
}

// trainHost is one attached station. Each burst re-arms a timeout a
// second ahead and cancels the previous one, so cancelled timers wait in
// the queue as in a flood cell; some deliveries are answered with bursts
// of empty segments, so replies interleave with trains.
type trainHost struct {
	w       *trainWorld
	addr    Addr
	eng     *Engine
	rnd     *rand.Rand
	peers   []Addr
	bursts  uint32
	timeout Timer
	log     []string // deliveries, in order
	// delivered holds the deliveries' times, and interleaved the source of
	// each segment of the two interleaved trains, in order.
	delivered   []time.Duration
	interleaved []Addr
	// Coverage of the edge cases, counted per burst and per host.
	empty, single, lastIsFull int
}

var (
	trainUnroutable = Addr{12, 0, 0, 1}
	trainUnattached = Addr{13, 0, 0, 1}
)

func (h *trainHost) burst(seg tcpkit.Segment, count, lastLen int) {
	switch {
	case count == 0:
		h.empty++
	case count == 1:
		h.single++
	}
	if lastLen == seg.PayloadLen {
		h.lastIsFull++
	}
	w := h.w
	if !w.singles {
		w.net.SendTrain(seg, count, lastLen)
		return
	}
	for k := 0; k < count; k++ {
		s := seg
		if k == count-1 {
			s.PayloadLen = lastLen
		}
		w.net.Send(s)
	}
}

func (h *trainHost) Addr() Addr { return h.addr }

func (h *trainHost) Handle(seg tcpkit.Segment) {
	h.log = append(h.log, fmt.Sprintf("%v %v seq=%d len=%d", h.eng.Now(), seg.Src, seg.Seq, seg.PayloadLen))
	h.delivered = append(h.delivered, h.eng.Now())
	if seg.Seq == interleavedSeqA || seg.Seq == interleavedSeqB {
		h.interleaved = append(h.interleaved, seg.Src)
	}
	if seg.PayloadLen > 0 && seg.PayloadLen%5 == 0 {
		reply := tcpkit.Segment{Src: h.addr, Dst: seg.Src, SrcPort: seg.DstPort, DstPort: seg.SrcPort, Seq: seg.Seq, Flags: tcpkit.FlagACK}
		h.burst(reply, 1+int(seg.Seq%3), 0)
	}
}

func (h *trainHost) tick() {
	if h.eng.Now() >= h.w.stopAt {
		return
	}
	full := 1 + h.rnd.Intn(1460)
	count := []int{0, 1, 2, 69, 1 + h.rnd.Intn(30)}[h.rnd.Intn(5)]
	lastLen := full
	if h.rnd.Intn(2) == 0 {
		lastLen = h.rnd.Intn(full + 1)
	}
	h.bursts++
	h.burst(tcpkit.Segment{
		Src: h.addr, Dst: h.peers[h.rnd.Intn(len(h.peers))],
		SrcPort: 80, DstPort: 1000, Seq: h.bursts,
		Flags: tcpkit.FlagACK | tcpkit.FlagPSH, PayloadLen: full,
	}, count, lastLen)
	h.timeout.Cancel()
	h.timeout = h.eng.Schedule(time.Second, func() {})
	h.eng.Schedule(time.Duration(h.rnd.ExpFloat64()/300*float64(time.Second)), h.tick)
}

// edgeLen is the payload of a 1,250-byte segment, which a 50 Mbps link
// serialises in exactly 200 µs: five of them fill a 1 ms backlog to the
// nanosecond.
const edgeLen = 1250 - tcpkit.IPHeaderLen - tcpkit.TCPHeaderLen

// edgeBursts attaches a fifth station, on the shallow station's link,
// that sends only the bursts below, to the store slot no other host
// sends to, each from an idle uplink: the waits the uplink's accepted
// prefix turns on land exactly on its backlog.
func (w *trainWorld) edgeBursts(t *testing.T) {
	t.Helper()
	edge := &trainHost{w: w, addr: Addr{10, 0, 0, 5}, eng: w.net.Eng}
	if err := w.net.Attach(edge, LinkConfig{RateBps: 50e6, Latency: 2 * time.Millisecond, MaxBacklog: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	w.hosts = append(w.hosts, edge)
	for _, step := range []struct {
		at     time.Duration
		bursts [][2]int // count, lastLen
	}{
		// The sixth segment waits exactly 1 ms and is sent, the rest dropped.
		{10 * time.Millisecond, [][2]int{{8, edgeLen}}},
		// A two-segment train whose last waits exactly 1 ms, then one
		// dropped whole behind it.
		{20 * time.Millisecond, [][2]int{{4, edgeLen}, {2, 7}, {2, 100}}},
		// A two-segment train sent whole behind a queue.
		{30 * time.Millisecond, [][2]int{{3, edgeLen}, {2, 500}}},
		// A train whose first segment waits exactly 1 ms.
		{40 * time.Millisecond, [][2]int{{5, edgeLen}, {3, edgeLen}}},
	} {
		edge.eng.ScheduleAt(step.at, func() {
			for _, b := range step.bursts {
				edge.burst(tcpkit.Segment{Src: edge.addr, Dst: w.store.Addr(1), SrcPort: 80, DstPort: 1000, Seq: 7, PayloadLen: edgeLen}, b[0], b[1])
			}
		})
	}
}

// Two 69-segment trains the two 1 Gbps hosts send the client at the same
// instant, so that their segments interleave on its 100 Mbps downlink.
const interleavedSeqA, interleavedSeqB = 900_001, 900_002

// runTrainWorld builds the world and drains it with Run, or with bare
// Steps when step is set.
// The hosts are two 1 Gbps servers, a 100 Mbps client and a shallow
// 50 Mbps station whose uplink drops the tails of its own long trains and
// whose downlink, fed at 100 Mbps, drops segments in the middle of the
// client's; they also send to a three-slot source store and to an address
// nobody owns, and one train comes from an unattached origin.
func runTrainWorld(t *testing.T, step, singles bool) *trainWorld {
	t.Helper()
	w := &trainWorld{net: NewNetwork(NewEngine()), singles: singles, stopAt: 400 * time.Millisecond}
	w.net.RegisterTap(func(at time.Duration, dir TapDir, seg tcpkit.Segment) {
		w.taps = append(w.taps, fmt.Sprintf("%v dir=%d %v>%v seq=%d len=%d", at, dir, seg.Src, seg.Dst, seg.Seq, seg.PayloadLen))
		w.tapAt = append(w.tapAt, at)
	})
	links := []LinkConfig{
		DefaultServerLink(),
		DefaultHostLink(),
		{RateBps: 50e6, Latency: 2 * time.Millisecond, MaxBacklog: time.Millisecond},
		DefaultServerLink(),
	}
	var err error
	w.store, err = w.net.AttachSources(3, Addr{11, 0, 0, 1}, DefaultHostLink(), func(slot int32, seg tcpkit.Segment) {
		now := w.net.Eng.Now()
		w.log = append(w.log, fmt.Sprintf("%v slot=%d %v seq=%d len=%d", now, slot, seg.Src, seg.Seq, seg.PayloadLen))
		if seg.PayloadLen%7 == 0 {
			w.store.SendAt(slot, now, tcpkit.Segment{Src: w.store.Addr(slot), Dst: seg.Src, SrcPort: seg.DstPort, DstPort: seg.SrcPort, Seq: seg.Seq, Flags: tcpkit.FlagACK})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []Addr
	for i, link := range links {
		addr := Addr{10, 0, 0, byte(1 + i)}
		h := &trainHost{w: w, addr: addr, eng: w.net.Eng, rnd: rand.New(rand.NewSource(int64(17 + i)))}
		if err := w.net.Attach(h, link); err != nil {
			t.Fatal(err)
		}
		w.hosts = append(w.hosts, h)
		addrs = append(addrs, addr)
	}
	// First thing, ahead of any random traffic: a burst the shallow uplink
	// cuts to its first segment, because the four 1500-byte segments sent
	// before it leave 40 µs of its 1 ms backlog.
	shallow := w.hosts[2]
	shallow.eng.Schedule(0, func() {
		full := tcpkit.Segment{Src: shallow.addr, Dst: addrs[1], SrcPort: 80, DstPort: 1000, PayloadLen: 1460}
		shallow.burst(full, 4, 1460)
		shallow.burst(full, 3, 7)
	})
	for i, seq := range []uint32{interleavedSeqA, interleavedSeqB} {
		h := w.hosts[3*i] // the two 1 Gbps hosts
		h.eng.Schedule(0, func() {
			h.burst(tcpkit.Segment{Src: h.addr, Dst: addrs[1], SrcPort: 80, DstPort: 1000, Seq: seq, PayloadLen: 1460}, 69, 1460)
		})
	}
	for _, h := range w.hosts {
		for _, p := range addrs {
			if p != h.addr {
				h.peers = append(h.peers, p)
			}
		}
		h.peers = append(h.peers, w.store.Addr(0), w.store.Addr(2), trainUnroutable)
		h.eng.Schedule(0, h.tick)
	}
	w.edgeBursts(t)
	w.hosts[0].burst(tcpkit.Segment{Src: trainUnattached, Dst: addrs[0], PayloadLen: 9}, 3, 5)
	if step {
		for w.net.Eng.Step() {
		}
	} else {
		w.net.Run(3 * time.Second)
	}
	return w
}

// delivered is what a run must reproduce under any driver: what each host
// and the store received and when, every link counter, the unroutable
// count and the events fired.
func (w *trainWorld) delivered() string {
	var b strings.Builder
	for _, h := range w.hosts {
		up, down, _ := w.net.Stats(h.addr)
		fmt.Fprintf(&b, "%v up=%+v down=%+v\n  %s\n", h.addr, up, down, strings.Join(h.log, "\n  "))
	}
	up, down := w.store.Stats()
	fmt.Fprintf(&b, "store up=%+v down=%+v\n  %s\n", up, down, strings.Join(w.log, "\n  "))
	st := w.net.Eng.Stats()
	fmt.Fprintf(&b, "unroutable=%d timers=%d packet-legs=%d\n", w.net.Unroutable(), st.TimersFired, st.PacketLegsFired)
	return b.String()
}

// queue is what depends on the driver as well: deliver legs fired in
// place, deliver legs queued behind a downlink FIFO's head and cancelled
// timers discarded. Trains and singles run the same way must agree on
// all three; ArrivalsInPlace is the one counter that tells them apart.
func (w *trainWorld) queue() string {
	st := w.net.Eng.Stats()
	return fmt.Sprintf("in-place=%d delivers-queued=%d discarded=%d", st.InPlace, st.DeliversQueued, st.Discarded)
}

// checkDownlinks holds a run to what it must give however it was run,
// whatever the queue did: each host received every segment its downlink
// accepted, once, in ascending time, and the tap log never goes back in
// time. A
// deliver leg skipped, fired twice or fired out of turn breaks one of
// these even when trains and singles break alike.
func (w *trainWorld) checkDownlinks(t *testing.T, name string) {
	t.Helper()
	for _, h := range w.hosts {
		_, down, _ := w.net.Stats(h.addr)
		if uint64(len(h.delivered)) != down.SentPackets {
			t.Errorf("%s: %v received %d segments, its downlink accepted %d", name, h.addr, len(h.delivered), down.SentPackets)
		}
		for i := 1; i < len(h.delivered); i++ {
			if h.delivered[i] <= h.delivered[i-1] {
				t.Errorf("%s: %v received a segment at %v after one at %v", name, h.addr, h.delivered[i], h.delivered[i-1])
				break
			}
		}
	}
	for i := 1; i < len(w.tapAt); i++ {
		if w.tapAt[i] < w.tapAt[i-1] {
			t.Errorf("%s: tap %d at %v after tap %d at %v", name, i, w.tapAt[i], i-1, w.tapAt[i-1])
			break
		}
	}
}

// TestTrainMatchesSingles: a burst sent as one SendTrain is exactly the
// same burst sent as per-segment Sends — the same taps in the same order
// at the same times, the same deliveries, link counters, unroutable
// count, events fired, deliver legs fired in place and cancelled timers
// discarded — under Run and under bare Steps. The edge station's bursts
// are the boundaries of the uplink's closed form: a wait exactly on the
// backlog at the first, a middle and the last segment of a train, and
// two-segment trains. The 1 Gbps → 100 Mbps path is what fails if a
// deliver leg may fire in place without ordering before its train's next
// arrival:
// each segment's downlink serialisation outlasts the gap to the next one.
// There, and where two servers' trains interleave on the client's
// downlink and the shallow downlink drops segments from the middle of a
// train, deliver legs queue in the downlink FIFOs; checkDownlinks fails
// if a FIFO arms a leg behind its head or fires a queued leg early.
func TestTrainMatchesSingles(t *testing.T) {
	ref := runTrainWorld(t, false, true).delivered()
	for _, d := range []struct {
		name string
		step bool
	}{
		{"Run", false},
		{"Step", true},
	} {
		t.Run(d.name, func(t *testing.T) {
			singles := runTrainWorld(t, d.step, true)
			trains := runTrainWorld(t, d.step, false)
			if got, want := strings.Join(trains.taps, "\n"), strings.Join(singles.taps, "\n"); got != want {
				t.Errorf("tap logs differ:\n trains:\n%s\nsingles:\n%s", got, want)
			}
			if got, want := trains.queue(), singles.queue(); got != want {
				t.Errorf("queue counters differ: trains %s, singles %s", got, want)
			}
			for name, w := range map[string]*trainWorld{"trains": trains, "singles": singles} {
				if got := w.delivered(); got != ref {
					t.Errorf("%s: deliveries differ from the serial Run of singles:\n%s\nwant:\n%s", name, got, ref)
				}
				w.checkDownlinks(t, name)
			}
			tst, sst := trains.net.Eng.Stats(), singles.net.Eng.Stats()
			if sst.ArrivalsInPlace != 0 || (d.step && tst.ArrivalsInPlace != 0) || (!d.step && tst.ArrivalsInPlace == 0) {
				t.Errorf("arrivals in place: trains %d, singles %d; want some for trains under Run and none otherwise",
					tst.ArrivalsInPlace, sst.ArrivalsInPlace)
			}
		})
	}

	// The fixture reaches every case it exists for.
	w := runTrainWorld(t, false, false)
	var empty, single, lastIsFull int
	for _, h := range w.hosts {
		empty, single, lastIsFull = empty+h.empty, single+h.single, lastIsFull+h.lastIsFull
	}
	if empty == 0 || single == 0 || lastIsFull == 0 {
		t.Errorf("bursts: %d empty, %d single, %d with lastLen == PayloadLen; want each", empty, single, lastIsFull)
	}
	if s := serialise(edgeLen+tcpkit.IPHeaderLen+tcpkit.TCPHeaderLen, 50e6); s != 200*time.Microsecond {
		t.Errorf("a 1,250-byte segment takes %v at 50 Mb/s; want exactly 200µs", s)
	}
	if edgeUp, _, _ := w.net.Stats(w.hosts[4].addr); edgeUp.SentPackets != 23 || edgeUp.Dropped != 6 {
		t.Errorf("edge uplink %+v: want 23 segments sent and 6 dropped", edgeUp)
	}
	shallowUp, shallowDown, _ := w.net.Stats(w.hosts[2].addr)
	storeUp, storeDown := w.store.Stats()
	if shallowUp.Dropped == 0 || shallowDown.Dropped == 0 || storeUp.SentPackets == 0 || storeDown.SentPackets == 0 {
		t.Errorf("shallow link up=%+v down=%+v, store up=%+v down=%+v: want drops both ways and store traffic both ways",
			shallowUp, shallowDown, storeUp, storeDown)
	}
	if st := w.net.Eng.Stats(); st.InPlace == 0 || st.DeliversQueued == 0 || st.Discarded == 0 || w.net.Unroutable() <= 3 {
		t.Errorf("stats=%+v unroutable=%d: want in-place deliveries, queued deliver legs, discards and unroutable sends",
			st, w.net.Unroutable())
	}
	client := w.hosts[1]
	switches := 0
	for i := 1; i < len(client.interleaved); i++ {
		if client.interleaved[i] != client.interleaved[i-1] {
			switches++
		}
	}
	if len(client.interleaved) != 2*69 || switches < 69 {
		t.Errorf("the two servers' trains reached the client as %d segments with %d changes of sender; want 138 interleaved",
			len(client.interleaved), switches)
	}
}
