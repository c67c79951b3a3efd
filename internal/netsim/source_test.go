package netsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

func TestSourceAddrRoundTrip(t *testing.T) {
	base := Addr{100, 2, 0, 1}
	s := &SourceStore{base: base, count: MaxSourceSlots}
	for _, i := range []int{0, 1, 199, 200, 51199, 51200, 1_000_000, MaxSourceSlots - 1} {
		addr := SourceAddr(base, i)
		slot, ok := s.slotOf(addr)
		if !ok || int(slot) != i {
			t.Fatalf("slotOf(SourceAddr(%d)) = %d,%v", i, slot, ok)
		}
	}
	if _, ok := s.slotOf(Addr{101, 2, 0, 1}); ok {
		t.Fatalf("foreign first octet resolved to a slot")
	}
}

// SourceAddr must agree with the botnet's historic derivation for the
// first 51200 sources (addr[3] += i%200; addr[2] += i/200).
func TestSourceAddrMatchesBotnetDerivation(t *testing.T) {
	base := Addr{10, 2, 0, 1}
	for _, i := range []int{0, 5, 199, 200, 12345, 51199} {
		want := base
		want[3] += byte(i % 200)
		want[2] += byte(i / 200)
		if got := SourceAddr(base, i); got != want {
			t.Fatalf("SourceAddr(%d) = %v, want %v", i, got, want)
		}
	}
}

type sinkNode struct {
	addr     Addr
	got      []tcpkit.Segment
	at       []time.Duration
	eng      *Engine
	reply    bool
	replyNet *Network
}

func (s *sinkNode) Addr() Addr { return s.addr }
func (s *sinkNode) Handle(seg tcpkit.Segment) {
	s.got = append(s.got, seg)
	s.at = append(s.at, s.eng.Now())
	if s.reply {
		s.replyNet.Send(tcpkit.Segment{Src: s.addr, Dst: seg.Src, SrcPort: seg.DstPort, DstPort: seg.SrcPort, Flags: tcpkit.FlagSYN | tcpkit.FlagACK})
	}
}

// A store-backed source must be wire-identical to an attached port: same
// delivery time at the destination, and replies must route back into the
// store's handler with the right slot.
func TestStoreSendMatchesPortSend(t *testing.T) {
	link := DefaultHostLink()
	seg := func(src Addr) tcpkit.Segment {
		return tcpkit.Segment{Src: src, Dst: Addr{10, 0, 0, 1}, SrcPort: 3333, DstPort: 80, Flags: tcpkit.FlagSYN}
	}

	// Reference run: one attached port.
	refEng := NewEngine()
	refNet := NewNetwork(refEng)
	refSink := &sinkNode{addr: Addr{10, 0, 0, 1}, eng: refEng}
	if err := refNet.Attach(refSink, DefaultServerLink()); err != nil {
		t.Fatal(err)
	}
	srcAddr := Addr{20, 2, 0, 1}
	srcNode := &sinkNode{addr: srcAddr, eng: refEng}
	if err := refNet.Attach(srcNode, link); err != nil {
		t.Fatal(err)
	}
	refNet.SendFrom(srcAddr, seg(srcAddr))
	refEng.Run(time.Second)

	// Store run: same topology, source backed by a one-slot store.
	eng2 := NewEngine()
	net2 := NewNetwork(eng2)
	sink2 := &sinkNode{addr: Addr{10, 0, 0, 1}, eng: eng2}
	if err := net2.Attach(sink2, DefaultServerLink()); err != nil {
		t.Fatal(err)
	}
	var gotSlot int32 = -1
	var gotReply tcpkit.Segment
	store, err := net2.AttachSources(1, srcAddr, link, func(slot int32, s tcpkit.Segment) {
		gotSlot, gotReply = slot, s
	})
	if err != nil {
		t.Fatal(err)
	}
	sink2.reply, sink2.replyNet = true, net2
	store.SendAt(0, 0, seg(srcAddr))
	eng2.Run(time.Second)

	if len(refSink.got) != 1 || len(sink2.got) != 1 {
		t.Fatalf("deliveries: ref=%d store=%d", len(refSink.got), len(sink2.got))
	}
	if refSink.at[0] != sink2.at[0] {
		t.Fatalf("delivery time differs: port %v vs store %v", refSink.at[0], sink2.at[0])
	}
	if gotSlot != 0 {
		t.Fatalf("reply slot = %d, want 0", gotSlot)
	}
	if !gotReply.Flags.Has(tcpkit.FlagSYN | tcpkit.FlagACK) {
		t.Fatalf("reply flags = %v", gotReply.Flags)
	}
	up, _ := store.Stats()
	if up.SentPackets != 1 {
		t.Fatalf("store uplink packets = %d", up.SentPackets)
	}
}

// Renumbering moves a source's per-slot state, never its identity: a slot
// sends from its source's address, replies to that address reach that
// slot, and a send deferred to a future instant fires then, as a timer.
func TestRenumberedStore(t *testing.T) {
	eng := NewEngine()
	net := NewNetwork(eng)
	server := &sinkNode{addr: Addr{10, 0, 0, 1}, eng: eng, reply: true, replyNet: net}
	if err := net.Attach(server, DefaultServerLink()); err != nil {
		t.Fatal(err)
	}
	base := Addr{20, 2, 0, 1}
	var replies []int32
	store, err := net.AttachSources(3, base, DefaultHostLink(), func(slot int32, _ tcpkit.Segment) {
		replies = append(replies, slot)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int32{{0, 1}, {0, 1, 1}, {0, 1, 3}, {-1, 0, 1}} {
		if store.Renumber(bad) == nil {
			t.Errorf("Renumber(%v) accepted a non-permutation", bad)
		}
	}
	if err := store.Renumber([]int32{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	for slot, src := range []int{2, 0, 1} {
		if got := store.Addr(int32(slot)); got != SourceAddr(base, src) || store.Source(int32(slot)) != src {
			t.Errorf("slot %d: Addr %v Source %d, want source %d", slot, got, store.Source(int32(slot)), src)
		}
	}
	syn := tcpkit.Segment{Src: store.Addr(0), Dst: server.addr, SrcPort: 3333, DstPort: 80, Flags: tcpkit.FlagSYN}
	store.SendAt(0, 50*time.Millisecond, syn)
	eng.Run(time.Second)
	if len(server.at) != 1 || server.at[0] <= 50*time.Millisecond || server.got[0].Src != SourceAddr(base, 2) {
		t.Fatalf("server got %v at %v, want one SYN from source 2 after 50ms", server.got, server.at)
	}
	if len(replies) != 1 || replies[0] != 0 {
		t.Errorf("replies reached slots %v, want [0]", replies)
	}
	if st := eng.Stats(); st.TimersFired != 1 {
		t.Errorf("TimersFired = %d, want the deferred send", st.TimersFired)
	}
}

func TestAttachOverlapRejected(t *testing.T) {
	net := NewNetwork(NewEngine())
	base := Addr{10, 2, 0, 1}
	if _, err := net.AttachSources(100, base, DefaultHostLink(), func(int32, tcpkit.Segment) {}); err != nil {
		t.Fatal(err)
	}
	// A port inside the range must be rejected.
	n := &sinkNode{addr: SourceAddr(base, 50)}
	if err := net.Attach(n, DefaultHostLink()); err == nil {
		t.Fatalf("attach inside macro range succeeded")
	}
	// A second store sharing the first octet must be rejected.
	if _, err := net.AttachSources(10, Addr{10, 200, 0, 1}, DefaultHostLink(), func(int32, tcpkit.Segment) {}); err == nil {
		t.Fatalf("same-prefix second store succeeded")
	}
	// And the reverse: a store over an attached port's address.
	net2 := NewNetwork(NewEngine())
	if err := net2.Attach(&sinkNode{addr: SourceAddr(base, 3)}, DefaultHostLink()); err != nil {
		t.Fatal(err)
	}
	if _, err := net2.AttachSources(100, base, DefaultHostLink(), func(int32, tcpkit.Segment) {}); err == nil {
		t.Fatalf("store over attached port succeeded")
	}
}

// A store pays for inbound state only once traffic lands on it: replies
// to spoofed sources route elsewhere, and membership tests read only the
// address range, so neither allocates the downlink slice or the inverse
// of the renumbering. The first delivery allocates both and reaches the
// slot that holds the addressed source.
func TestStoreInboundStateOnFirstDelivery(t *testing.T) {
	eng := NewEngine()
	net := NewNetwork(eng)
	server := &sinkNode{addr: Addr{10, 0, 0, 1}, eng: eng, reply: true, replyNet: net}
	if err := net.Attach(server, DefaultServerLink()); err != nil {
		t.Fatal(err)
	}
	base := Addr{20, 2, 0, 1}
	var replies []int32
	store, err := net.AttachSources(4, base, DefaultHostLink(), func(slot int32, _ tcpkit.Segment) {
		replies = append(replies, slot)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Renumber([]int32{3, 1, 0, 2}); err != nil {
		t.Fatal(err)
	}
	for slot := int32(0); slot < 4; slot++ {
		spoofed := Addr{100, 0, 0, byte(1 + slot)}
		store.SendAt(slot, 0, tcpkit.Segment{Src: spoofed, Dst: server.addr, SrcPort: 3333, DstPort: 80, Flags: tcpkit.FlagSYN})
	}
	eng.Run(time.Second)
	if len(server.got) != 4 || net.Unroutable() != 4 {
		t.Fatalf("server got %d SYNs, %d replies unroutable; want 4 and 4", len(server.got), net.Unroutable())
	}
	if !store.Contains(SourceAddr(base, 3)) || store.Contains(SourceAddr(base, 4)) {
		t.Errorf("Contains disagrees with the population's range")
	}
	if store.downBusy != nil || store.slot != nil {
		t.Fatalf("a store nothing reached holds downBusy %v, inverse %v", store.downBusy != nil, store.slot != nil)
	}

	// Slot 3 holds source 2, so the reply to source 2's address lands there.
	store.SendAt(3, eng.Now(), tcpkit.Segment{Src: SourceAddr(base, 2), Dst: server.addr, SrcPort: 3334, DstPort: 80, Flags: tcpkit.FlagSYN})
	eng.Run(2 * time.Second)
	if len(replies) != 1 || replies[0] != 3 {
		t.Fatalf("replies reached slots %v, want [3]", replies)
	}
	if len(store.downBusy) != 4 || len(store.slot) != 4 || store.slot[2] != 3 {
		t.Errorf("after a delivery: downBusy %v, inverse %v", store.downBusy, store.slot)
	}
	if _, down := store.Stats(); down.SentPackets != 1 {
		t.Errorf("store downlink packets = %d, want 1", down.SentPackets)
	}
}

// SendAhead transmits at a future instant without a timer, inside the Run
// in progress and while no tap is registered, and is then SendAt to the
// byte: the same arrivals at the same times and the same link counters,
// with each send counted in SentAhead instead of TimersFired. A tap
// cannot be registered while a packet sent ahead is still ahead of the
// clock; once one is, and outside a Run's bound, SendAhead takes a timer.
func TestSendAhead(t *testing.T) {
	type outcome struct {
		at          []time.Duration
		up          LinkStats
		timers      uint64
		sentAhead   uint64
		tapPanicked bool
	}
	run := func(ahead bool) outcome {
		eng := NewEngine()
		n := NewNetwork(eng)
		sink := &sinkNode{addr: Addr{10, 0, 0, 1}, eng: eng}
		if err := n.Attach(sink, DefaultServerLink()); err != nil {
			t.Fatal(err)
		}
		store, err := n.AttachSources(3, Addr{20, 2, 0, 1}, DefaultHostLink(), func(int32, tcpkit.Segment) {})
		if err != nil {
			t.Fatal(err)
		}
		send := store.SendAt
		if ahead {
			send = store.SendAhead
		}
		var o outcome
		eng.Schedule(time.Millisecond, func() {
			for i, at := range []time.Duration{5, 5, 7, 2000} {
				slot := int32(i % 3)
				send(slot, at*time.Millisecond, tcpkit.Segment{Src: store.Addr(slot), Dst: sink.addr, SrcPort: uint16(i), DstPort: 80, Flags: tcpkit.FlagSYN})
			}
			func() {
				defer func() { o.tapPanicked = recover() != nil }()
				n.RegisterTap(func(time.Duration, TapDir, tcpkit.Segment) {})
			}()
		})
		eng.Run(time.Second)
		eng.Run(3 * time.Second)
		o.at, o.timers, o.sentAhead = sink.at, eng.Stats().TimersFired, eng.Stats().SentAhead
		o.up, _ = store.Stats()
		return o
	}
	ref, got := run(false), run(true)
	if ref.tapPanicked || !got.tapPanicked {
		t.Errorf("RegisterTap panicked %v with sends via timers, %v with sends ahead of the clock; want false, true", ref.tapPanicked, got.tapPanicked)
	}
	if len(got.at) != 4 || !slices.Equal(got.at, ref.at) || got.up != ref.up {
		t.Errorf("sent ahead: arrivals %v, uplink %+v; via timers: %v, %+v", got.at, got.up, ref.at, ref.up)
	}
	// The 2 s send is past the first Run's bound and takes a timer.
	if got.sentAhead != 3 || got.timers+got.sentAhead != ref.timers || ref.sentAhead != 0 {
		t.Errorf("sent ahead %d with %d timers, via timers %d with %d; want 3 and a timer for each other", got.sentAhead, got.timers, ref.sentAhead, ref.timers)
	}

	// Under a tap, and outside a Run (Step has no bound), SendAhead is SendAt.
	for _, tapped := range []bool{true, false} {
		eng := NewEngine()
		n := NewNetwork(eng)
		store, err := n.AttachSources(1, Addr{20, 2, 0, 1}, DefaultHostLink(), func(int32, tcpkit.Segment) {})
		if err != nil {
			t.Fatal(err)
		}
		if tapped {
			n.RegisterTap(func(time.Duration, TapDir, tcpkit.Segment) {})
		}
		eng.Schedule(0, func() {
			store.SendAhead(0, time.Millisecond, tcpkit.Segment{Src: store.Addr(0), Dst: Addr{10, 0, 0, 1}})
		})
		if tapped {
			eng.Run(time.Second)
		} else {
			for eng.Step() {
			}
		}
		if st := eng.Stats(); st.SentAhead != 0 || st.TimersFired != 2 {
			t.Errorf("tapped %v: %d sent ahead, %d timers fired; want 0 and 2", tapped, st.SentAhead, st.TimersFired)
		}
	}
}

// TestSendAheadFIFOMatchesTapped: arrivals sent ahead of the clock, which
// wait in one FIFO while their keys ascend and in the packet heap when one
// orders before the FIFO's tail, make the same (segment, time)
// deliveries per node, with the same pending count at each, as the
// tapped run, where every future send takes a timer; so are the link
// counters and the pending count at the end of every Run. Every
// millisecond a batch event sends ahead from two stores whose links'
// latencies differ by 3 ms: the first store's slots in ascending virtual
// time, which join the FIFO; the second's, then the first's a little
// later, which arrive earlier and go to the heap; and three of the first
// store's slots again, at one instant after their first sends, in
// descending address order, so that all but the first order before the
// tail. A batch's sends all fall before the next batch, so no slot sends
// at an instant before one it has sent at: SendAhead's contract. Half the traffic goes to a 10 Mbps
// sink, so deliver legs queue there too. Runs of 1.3 ms end while
// arrivals sent ahead are pending; bare Steps fire the rest.
func TestSendAheadFIFOMatchesTapped(t *testing.T) {
	type outcome struct {
		log, ends           []string
		joined, heaped      int
		sentAhead, timers   uint64
		packetLegs, maxHeld int
	}
	run := func(tapped bool) outcome {
		var o outcome
		e := NewEngine()
		n := NewNetwork(e)
		var sinks []Addr
		for i, link := range []LinkConfig{DefaultServerLink(), {RateBps: 10e6, Latency: time.Millisecond, MaxBacklog: 100 * time.Millisecond}} {
			addr := Addr{10, 0, 0, byte(1 + i)}
			node := funcNode{addr: addr, handle: func(seg tcpkit.Segment) {
				o.log = append(o.log, fmt.Sprintf("%v %v %v:%d pending=%d", addr, e.Now(), seg.Src, seg.SrcPort, e.Pending()))
			}}
			if err := n.Attach(node, link); err != nil {
				t.Fatal(err)
			}
			sinks = append(sinks, addr)
		}
		var stores []*SourceStore
		for i, latency := range []time.Duration{2 * time.Millisecond, 5 * time.Millisecond} {
			link := LinkConfig{RateBps: 100e6, Latency: latency, MaxBacklog: 100 * time.Millisecond}
			s, err := n.AttachSources(8, Addr{byte(20 + 10*i), 0, 0, 1}, link, func(int32, tcpkit.Segment) {})
			if err != nil {
				t.Fatal(err)
			}
			stores = append(stores, s)
		}
		if tapped {
			n.RegisterTap(func(time.Duration, TapDir, tcpkit.Segment) {})
		}
		var id uint16
		send := func(s *SourceStore, slot int32, at time.Duration) {
			id++
			tail, ahead := e.aheadTail, e.stats.SentAhead
			s.SendAhead(slot, at, tcpkit.Segment{Src: s.Addr(slot), Dst: sinks[id%2], SrcPort: id, DstPort: 80, Flags: tcpkit.FlagSYN})
			switch {
			case e.stats.SentAhead == ahead:
			case e.aheadTail != tail:
				o.joined++
			default:
				o.heaped++
			}
		}
		for b := time.Duration(0); b < 30; b++ {
			e.ScheduleAt(b*time.Millisecond, func() {
				now := e.Now()
				for slot := int32(0); slot < 8; slot++ {
					send(stores[0], slot, now+time.Duration(slot)*120*time.Microsecond)
				}
				for slot := int32(0); slot < 4; slot++ {
					send(stores[1], slot, now+300*time.Microsecond)
				}
				send(stores[0], 0, now+400*time.Microsecond)
				for slot := int32(4); slot >= 2; slot-- {
					send(stores[0], slot, now+900*time.Microsecond)
				}
			})
		}
		end := func(label string) {
			line := fmt.Sprintf("%s pending=%d", label, e.Pending())
			for _, a := range sinks {
				up, down, _ := n.Stats(a)
				line += fmt.Sprintf(" %v %+v %+v", a, up, down)
			}
			for _, s := range stores {
				up, down := s.Stats()
				line += fmt.Sprintf(" %v %+v %+v", s.base, up, down)
			}
			o.ends = append(o.ends, line)
			o.maxHeld = max(o.maxHeld, e.held)
		}
		for until := time.Duration(0); until < 20*time.Millisecond; until += 1300 * time.Microsecond {
			e.Run(until)
			end(until.String())
		}
		for e.Step() {
		}
		end("drained")
		st := e.Stats()
		o.sentAhead, o.timers, o.packetLegs = st.SentAhead, st.TimersFired, int(st.PacketLegsFired)
		return o
	}
	got, ref := run(false), run(true)
	if g, r := strings.Join(got.log, "\n"), strings.Join(ref.log, "\n"); g != r {
		t.Errorf("deliveries differ:\nsent ahead:\n%s\ntapped:\n%s", g, r)
	}
	if g, r := strings.Join(got.ends, "\n"), strings.Join(ref.ends, "\n"); g != r {
		t.Errorf("state at the ends of the Runs differs:\nsent ahead:\n%s\ntapped:\n%s", g, r)
	}
	if got.timers+got.sentAhead != ref.timers || got.packetLegs != ref.packetLegs || ref.sentAhead != 0 {
		t.Errorf("sent ahead: %d timers, %d sends ahead, %d packet legs; tapped: %d, %d, %d",
			got.timers, got.sentAhead, got.packetLegs, ref.timers, ref.sentAhead, ref.packetLegs)
	}
	// The fixture reaches both branches, and a Run ends with members
	// waiting behind the FIFO's head.
	if got.joined == 0 || got.heaped == 0 || got.maxHeld == 0 || len(got.log) != 30*16 {
		t.Errorf("%d sends ahead joined the FIFO, %d went to the heap, at most %d waited behind a head at a Run's end, %d delivered; want each nonzero and 480 delivered",
			got.joined, got.heaped, got.maxHeld, len(got.log))
	}
}
