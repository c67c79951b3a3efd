package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
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

// TestTwoHeapsPopLikeOneOrder: the timer heap and the packet heap together
// pop exactly what one queue sorted by less would. Randomised rounds mix
// near timers, timers far ahead, cancels, and arrivals on a coarse time
// grid, so that timers tie with arrivals and arrivals with each other
// (same source, and across sources) on the same nanosecond; between
// rounds only part of the queue is popped, so late pushes land among
// events that have been waiting. The model is a plain slice: the next
// event is its minimum under less, cancelled ones left out.
func TestTwoHeapsPopLikeOneOrder(t *testing.T) {
	const grid = 100 * time.Microsecond
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var model []Event       // one copy per live pending event
		var handles []Timer     // live timers, cancellable
		var floor time.Duration // time of the last pop: nothing is pushed before it
		srcSeq := map[uint64]uint64{}
		popped := 0

		push := func() {
			switch at := floor + time.Duration(rnd.Intn(20))*grid; rnd.Intn(4) {
			case 0: // near timer
				h := e.ScheduleAt(at, func() {})
				handles, model = append(handles, h), append(model, *h.ev)
			case 1: // far timer: seconds ahead, as an RTO or idle timer is
				h := e.ScheduleAt(at+time.Duration(1+rnd.Intn(5))*time.Second, func() {})
				handles, model = append(handles, h), append(model, *h.ev)
			default: // arrival from one of three sources
				src := uint64(1 + rnd.Intn(3))
				e.scheduleArrival(&message{at: at, src: src, seq: srcSeq[src]})
				srcSeq[src]++
				for _, ev := range e.packets {
					if ev.seq == e.seq-1 {
						model = append(model, *ev)
					}
				}
			}
		}
		cancel := func() {
			if len(handles) == 0 {
				return
			}
			i := rnd.Intn(len(handles))
			h := handles[i]
			handles = append(handles[:i], handles[i+1:]...)
			if _, ok := h.At(); !ok {
				return // already popped
			}
			h.Cancel()
			for j := range model {
				if model[j].seq == h.ev.seq {
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
			h := e.live()
			if h == nil {
				t.Fatalf("seed %d: queue empty with %d events in the model", seed, len(model)+1)
			}
			got := h.pop()
			if got.seq != want.seq || got.at != want.at || got.kind != want.kind {
				t.Fatalf("seed %d pop %d: got (at=%v kind=%d src=%d/%d seq=%d), want (at=%v kind=%d src=%d/%d seq=%d)",
					seed, popped, got.at, got.kind, got.src, got.srcSeq, got.seq,
					want.at, want.kind, want.src, want.srcSeq, want.seq)
			}
			floor = got.at
			popped++
			e.recycle(got)
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
		if h := e.live(); h != nil {
			t.Fatalf("seed %d: %d events left after the model drained", seed, e.Pending())
		}
		if st := e.Stats(); st.PeakTimers == 0 || st.PeakPackets == 0 || st.Discarded == 0 {
			t.Fatalf("seed %d: fixture did not exercise both heaps and a discard: %+v", seed, st)
		}
	}
}
