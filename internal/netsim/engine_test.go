package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", e.Now())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run(2 * time.Second)
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling zero or fired handles must not panic (and must not touch
	// whatever event now occupies the recycled slot).
	var zero Timer
	zero.Cancel()
	ev2 := e.Schedule(0, func() {})
	e.Run(3 * time.Second)
	ev2.Cancel()
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Schedule(time.Second, func() {
		times = append(times, e.Now())
		e.Schedule(time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.Run(5 * time.Second)
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestEngineRunStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5*time.Second, func() { fired = true })
	e.Run(4 * time.Second)
	if fired {
		t.Error("event beyond boundary fired")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run(6 * time.Second)
	if !fired {
		t.Error("event not fired after extending run")
	}
}

func TestScheduleNegativeDelayClamps(t *testing.T) {
	e := NewEngine()
	e.Run(time.Second)
	var at time.Duration
	e.Schedule(-5*time.Second, func() { at = e.Now() })
	e.Run(2 * time.Second)
	if at != time.Second {
		t.Errorf("event at %v, want 1s (clamped)", at)
	}
}

// A cancelled event goes back to the pool without firing, and the struct
// that comes back out must not inherit the cancellation — the regression
// class behind the PR 3 cancelled-head bug.
func TestRecycledEventDoesNotInheritCancel(t *testing.T) {
	e := NewEngine()
	const n = 50
	for i := 0; i < n; i++ {
		tm := e.Schedule(time.Second, func() { t.Error("cancelled event fired") })
		tm.Cancel()
	}
	e.Run(2 * time.Second)
	if e.PoolSize() != n {
		t.Fatalf("PoolSize = %d, want %d cancelled events recycled", e.PoolSize(), n)
	}
	// Reuse the whole pool: every reused event must fire exactly once, in
	// FIFO order (stale ordering fields would scramble it, a stale
	// cancelled flag would drop it).
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run(4 * time.Second)
	if len(order) != n {
		t.Fatalf("fired %d of %d reused events", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO: reused event carried stale ordering state", order)
		}
	}
}

// A Timer held across its event's firing must not cancel the pool slot's
// next occupant.
func TestStaleCancelMissesReusedEvent(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(time.Second, func() {})
	e.Run(2 * time.Second) // fires and recycles the event
	fired := false
	fresh := e.Schedule(time.Second, func() { fired = true }) // reuses the struct
	stale.Cancel()                                            // generation moved on: must be a no-op
	if _, ok := stale.At(); ok {
		t.Error("stale Timer still reports a scheduled time")
	}
	if at, ok := fresh.At(); !ok || at != 3*time.Second {
		t.Errorf("fresh Timer At = %v, %v; want 3s, true", at, ok)
	}
	e.Run(4 * time.Second)
	if !fired {
		t.Error("stale Cancel killed the reused event")
	}
}

// The steady-state timer path must not touch the allocator: one event
// cycles between the heap and the free-list.
func TestSchedulingSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(time.Microsecond, tick) }
	e.Schedule(0, tick)
	for i := 0; i < 100; i++ { // warm the pool
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %v objects/op, want 0", allocs)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// scheduling order.
func TestEngineMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run(time.Hour)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// funcNode hands each delivered segment to handle.
type funcNode struct {
	addr   Addr
	handle func(tcpkit.Segment)
}

func (n funcNode) Addr() Addr                { return n.addr }
func (n funcNode) Handle(seg tcpkit.Segment) { n.handle(seg) }

// TestTwoHeapsPopLikeOneOrder: the timer heap, the packet heap and the
// downlink FIFOs together fire exactly what one queue sorted by less
// would. Randomised rounds mix near timers, timers far ahead, cancels, and
// arrivals at two slow real ports on a coarse time grid, so that timers
// tie with arrivals and arrivals with each other (same source, and across
// sources) on the same nanosecond, deliver legs queue behind each other in
// both downlinks' FIFOs, and some arrivals are dropped. Between rounds
// only part of the queue is fired, so late pushes land among events that
// have been waiting. Events fire as they would inside Run, so a deliver
// leg may also fire in place. The model is a plain slice: the next event
// is its minimum under less, cancelled ones left out, and an arrival it
// fires adds the deliver leg a FIFO downlink gives it — at the time its
// serialisation ends, under the next seq. Pending must count what the
// model holds, FIFO-held legs included.
func TestTwoHeapsPopLikeOneOrder(t *testing.T) {
	const grid = 100 * time.Microsecond
	// At 8 Mbps a 100–500-byte segment holds a downlink for 1–5 grid
	// steps, so legs queue; one facing more than 1 ms of backlog drops.
	link := LinkConfig{RateBps: 8e6, MaxBacklog: time.Millisecond}
	// rec is one fired event: timers are named by their seq, packet legs
	// by the id their segment carries.
	type rec struct {
		at   time.Duration
		kind eventKind
		id   uint64
	}
	recOf := func(ev *Event) rec {
		if ev.kind == kindFunc {
			return rec{ev.at, ev.kind, ev.seq}
		}
		return rec{ev.at, ev.kind, uint64(ev.pkt.seg.Seq)}
	}
	var inPlace, queued uint64 // over all seeds
	drops := 0
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		e := NewEngine()
		net := NewNetwork(e)
		var fired []rec // fired by the engine, not yet by the model
		var ports []*port
		for i := 0; i < 2; i++ {
			n := funcNode{addr: Addr{10, 0, 0, byte(1 + i)}, handle: func(seg tcpkit.Segment) {
				fired = append(fired, rec{e.Now(), kindDeliver, uint64(seg.Seq)})
			}}
			if err := net.Attach(n, link); err != nil {
				t.Fatal(err)
			}
			ports = append(ports, net.ports[n.addr])
		}
		e.limit = math.MaxInt64 // as inside Run: legs may fire in place

		var model []Event // one copy per live pending event
		var busy [2]time.Duration
		var seq uint64 // the next engine seq: timers and deliver legs take one each
		type handle struct {
			tm  Timer
			seq uint64
		}
		var handles []handle
		var floor time.Duration // nothing is pushed before the engine's clock
		srcSeq := map[uint64]uint64{}
		var ids uint32
		popped, cancelled := 0, 0

		push := func() {
			at := floor + time.Duration(rnd.Intn(20))*grid
			switch rnd.Intn(4) {
			case 0, 1: // a near timer, or one seconds ahead as an RTO or idle timer is
				if rnd.Intn(2) == 1 {
					at += time.Duration(1+rnd.Intn(5)) * time.Second
				}
				id := seq
				h := e.ScheduleAt(at, func() { fired = append(fired, rec{e.Now(), kindFunc, id}) })
				handles = append(handles, handle{h, seq})
				model = append(model, Event{at: at, seq: seq, kind: kindFunc})
				seq++
			default: // an arrival from one of three sources at one of two ports
				src := uint64(1 + rnd.Intn(3))
				ids++
				sg := tcpkit.Segment{Seq: ids, PayloadLen: 100*(1+rnd.Intn(5)) - 40}
				m := message{at: at, src: src, seq: srcSeq[src], pkt: packet{
					dst: ports[rnd.Intn(2)], seg: sg, size: int32(sg.WireSize()), slot: -1,
				}}
				e.scheduleArrival(&m)
				srcSeq[src]++
				model = append(model, Event{at: at, seq: m.seq, kind: kindArrival, src: src, pkt: m.pkt})
			}
		}
		cancel := func() {
			if len(handles) == 0 {
				return
			}
			i := rnd.Intn(len(handles))
			h := handles[i]
			handles = append(handles[:i], handles[i+1:]...)
			if _, ok := h.tm.At(); !ok {
				return // already fired
			}
			h.tm.Cancel()
			cancelled++
			for j := range model {
				if model[j].kind == kindFunc && model[j].seq == h.seq {
					model = append(model[:j], model[j+1:]...)
					break
				}
			}
		}
		pop := func() {
			min := 0
			for j := range model {
				if less(&model[j], &model[min]) {
					min = j
				}
			}
			want := model[min]
			model = append(model[:min], model[min+1:]...)
			if len(fired) == 0 {
				h := e.live()
				if h == nil {
					t.Fatalf("seed %d: queue empty with %d events in the model", seed, len(model)+1)
				}
				ev := h.pop()
				if ev.kind == kindArrival {
					fired = append(fired, recOf(ev))
				}
				e.fire(ev)
			}
			if got := fired[0]; got != recOf(&want) {
				t.Fatalf("seed %d event %d: fired %+v, want %+v", seed, popped, got, recOf(&want))
			}
			fired = fired[1:]
			if want.kind == kindArrival {
				p := want.pkt
				i := 0
				if p.dst == ports[1] {
					i = 1
				}
				if start := max(want.at, busy[i]); start-want.at > link.MaxBacklog {
					drops++
				} else {
					busy[i] = start + serialise(int(p.size), link.RateBps)
					model = append(model, Event{at: busy[i], seq: seq, kind: kindDeliver, pkt: p})
					seq++
				}
			}
			floor = e.Now()
			popped++
			if got, want := e.Pending(), len(model)-len(fired)+cancelled-int(e.stats.Discarded); got != want {
				t.Fatalf("seed %d event %d: Pending = %d, want %d", seed, popped, got, want)
			}
		}

		for round := 0; round < 30; round++ {
			for i := rnd.Intn(40); i >= 0; i-- {
				push()
			}
			for i := rnd.Intn(10); i > 0; i-- {
				cancel()
			}
			for i := rnd.Intn(len(model) + 1); i > 0; i-- {
				pop()
			}
		}
		for len(model) > 0 {
			pop()
		}
		if h := e.live(); h != nil || len(fired) > 0 || e.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending and %d fired unaccounted after the model drained", seed, e.Pending(), len(fired))
		}
		st := e.Stats()
		if st.PeakTimers == 0 || st.PeakPackets == 0 || st.Discarded == 0 {
			t.Fatalf("seed %d: fixture did not exercise both heaps and a discard: %+v", seed, st)
		}
		inPlace, queued = inPlace+st.InPlace, queued+st.DeliversQueued
	}
	if inPlace == 0 || queued == 0 || drops == 0 {
		t.Fatalf("fixture fired %d deliver legs in place, queued %d behind a FIFO head and dropped %d arrivals; want each",
			inPlace, queued, drops)
	}
}
