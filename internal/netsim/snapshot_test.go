package netsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// drainOrder fires every pending event and returns the log the scheduled
// closures append to, proving the heap's pop order survived a round trip.
func drainOrder(e *Engine, log *[]string) []string {
	*log = (*log)[:0]
	e.Run(time.Hour)
	return append([]string(nil), *log...)
}

// TestEngineSnapshotRestoreExact: snapshot mid-run, keep executing and
// mutating the schedule, restore — the engine must be back exactly:
// clock, sequence counter, fired count, pending set, and pop order.
func TestEngineSnapshotRestoreExact(t *testing.T) {
	e := NewEngine()
	var log []string
	at := func(name string, d time.Duration) Timer {
		return e.ScheduleAt(d, func() { *(&log) = append(log, fmt.Sprintf("%s@%v", name, e.Now())) })
	}
	at("a", 1*time.Millisecond)
	tb := at("b", 2*time.Millisecond)
	at("c", 3*time.Millisecond)
	at("d", 3*time.Millisecond) // same instant as c: scheduling order must hold
	at("e", 5*time.Millisecond)
	tb.Cancel()

	e.Run(1 * time.Millisecond) // fires a; b cancelled-fires; pool now holds them
	now, seq, fired, pending, pool := e.now, e.seq, e.fired, e.Pending(), e.PoolSize()
	snap := e.snapshot()

	// Speculative phase: execute past the snapshot and mutate the schedule.
	at("x", 4*time.Millisecond)
	e.Run(4 * time.Millisecond) // fires c, d, x
	at("y", 6*time.Millisecond)

	e.restore(snap)
	if e.now != now || e.seq != seq || e.fired != fired {
		t.Fatalf("restore: now=%v seq=%d fired=%d, want %v/%d/%d", e.now, e.seq, e.fired, now, seq, fired)
	}
	if e.Pending() != pending || e.PoolSize() != pool {
		t.Fatalf("restore: pending=%d pool=%d, want %d/%d", e.Pending(), e.PoolSize(), pending, pool)
	}
	// a fired before the snapshot; b was cancelled; the replay must fire
	// exactly the snapshot's pending set, same-instant pair in scheduling
	// order, with no trace of the speculative x or y.
	got := drainOrder(e, &log)
	want := []string{"c@3ms", "d@3ms", "e@5ms"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restore fire order = %v, want %v", got, want)
	}
}

// TestEngineSnapshotTimerGenerations pins the Timer-handle contract across
// a rollback: a handle issued before the snapshot is valid again after
// restore even though its event fired (and was recycled) during the
// speculative phase, while a handle issued *during* speculation on a
// recycled slot goes stale on restore.
func TestEngineSnapshotTimerGenerations(t *testing.T) {
	e := NewEngine()
	pre := e.ScheduleAt(2*time.Millisecond, func() {})
	e.ScheduleAt(5*time.Millisecond, func() {})
	snap := e.snapshot()

	e.Run(2 * time.Millisecond) // pre's event fires and is recycled (gen++)
	if _, ok := pre.At(); ok {
		t.Fatal("pre fired during speculation but its handle is still valid")
	}
	spec := e.ScheduleAt(3*time.Millisecond, func() {}) // reuses pre's pooled slot
	if spec.ev != pre.ev {
		t.Fatalf("test fixture assumption broke: speculative event did not reuse the pooled slot")
	}

	e.restore(snap)
	if at, ok := pre.At(); !ok || at != 2*time.Millisecond {
		t.Fatalf("pre-snapshot timer after restore: at=%v ok=%v, want 2ms true", at, ok)
	}
	if _, ok := spec.At(); ok {
		t.Fatal("speculation-issued timer survived the rollback")
	}
	pre.Cancel() // must hit the restored event, not a stale generation
	fired := 0
	e.ScheduleAt(10*time.Millisecond, func() { fired++ })
	e.Run(10 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.fired != snap.fired+2 { // cancelled pre still pops (and counts) plus the live closure
		t.Fatalf("fired counter = %d, want %d", e.fired, snap.fired+2)
	}
}

// TestEngineSnapshotFreeListScrubbed: restore rebuilds the pool with the
// recycle-time scrub invariant intact — allocations after a rollback hand
// out clean events carrying only their generation.
func TestEngineSnapshotFreeListScrubbed(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(time.Millisecond, func() {})
	e.Run(time.Millisecond) // one pooled event
	snap := e.snapshot()

	e.ScheduleAt(2*time.Millisecond, func() {}) // drains the pool
	e.Run(2 * time.Millisecond)                 // ... and refills it, gen bumped again

	e.restore(snap)
	if e.PoolSize() != 1 {
		t.Fatalf("pool size = %d, want 1", e.PoolSize())
	}
	ev := e.free[0]
	gen := ev.gen
	if ev.at != 0 || ev.seq != 0 || ev.src != 0 || ev.srcSeq != 0 ||
		ev.kind != kindFunc || ev.cancelled || ev.fn != nil ||
		!reflect.DeepEqual(ev.msg, message{}) {
		t.Fatalf("restored pool event not scrubbed: %+v", ev)
	}
	// The next allocation must hand the slot out clean, at the generation
	// the snapshot recorded — exactly as if the speculative reuse never
	// happened. (Handles the speculative execution created are themselves
	// rolled back with the application state, so none survive to observe
	// the reused generation.)
	tm := e.ScheduleAt(3*time.Millisecond, func() {})
	if tm.ev != ev || tm.gen != gen {
		t.Fatalf("post-restore alloc: slot reused=%v gen=%d, want reused gen %d", tm.ev == ev, tm.gen, gen)
	}
	if at, ok := tm.At(); !ok || at != 3*time.Millisecond {
		t.Fatalf("post-restore timer: at=%v ok=%v", at, ok)
	}
}

// TestSnapshotRestoreBothHeaps: a snapshot covers the timer heap and the
// packet heap — lengths, queue counters, and the interleaved pop order of
// what was pending — and a twin that never ran ahead is the reference.
func TestSnapshotRestoreBothHeaps(t *testing.T) {
	link := LinkConfig{RateBps: 1e6, Latency: 2 * time.Millisecond, MaxBacklog: time.Second}
	// build sends a burst that queues on the downlink (arrivals and deliver
	// legs pending together), sets timers among the deliveries, one of them
	// cancelled, and stops mid-burst.
	build := func() (*Network, *sink, *[]string) {
		net, a, b := twoNodeNet(t, link)
		e := net.Eng
		log := &[]string{}
		for i := 0; i < 6; i++ {
			net.Send(seg(a.addr, b.addr, 125-40))
		}
		for _, ms := range []int{7, 9, 9, 30} {
			at := time.Duration(ms) * time.Millisecond
			e.ScheduleAt(at, func() { *log = append(*log, fmt.Sprintf("timer@%v after %d", e.Now(), len(b.received))) })
		}
		e.ScheduleAt(8*time.Millisecond, func() { t.Error("cancelled timer fired") }).Cancel()
		e.RunBefore(7 * time.Millisecond)
		return net, b, log
	}
	finish := func(net *Network, b *sink, log *[]string) string {
		net.Eng.Run(time.Second)
		return fmt.Sprintf("%v %v %+v", *log, b.at, net.Eng.Stats())
	}
	refNet, refB, refLog := build()
	want := finish(refNet, refB, refLog)

	net, b, log := build()
	e := net.Eng
	timers, packets, stats := len(e.timers), len(e.packets), e.Stats()
	if timers == 0 || packets < 2 || stats.PacketLegsFired == 0 {
		t.Fatalf("fixture: timers=%d packets=%d stats=%+v, want both heaps populated mid-burst", timers, packets, stats)
	}
	received, logged := len(b.received), len(*log)
	snap := e.snapshot()
	down := net.ports[b.addr].down

	// Run ahead: drains most of both heaps, fires legs in place, discards
	// the cancelled timer, and schedules more of each kind.
	e.Run(12 * time.Millisecond)
	net.Send(seg(b.addr, Addr{10, 0, 0, 1}, 0))
	e.ScheduleAt(13*time.Millisecond, func() { t.Error("timer from the discarded execution fired") })
	if e.Stats() == stats {
		t.Fatal("running ahead changed no counter")
	}

	// Restore the engine, and by hand the application state a shard
	// rollback would restore with it.
	e.restore(snap)
	net.ports[b.addr].down = down
	net.ports[b.addr].up = xmitter{cfg: link}
	net.ports[b.addr].msgSeq = 0
	b.received, b.at, *log = b.received[:received], b.at[:received], (*log)[:logged]

	if len(e.timers) != timers || len(e.packets) != packets || e.Pending() != timers+packets {
		t.Fatalf("restore: timers=%d packets=%d pending=%d, want %d/%d/%d",
			len(e.timers), len(e.packets), e.Pending(), timers, packets, timers+packets)
	}
	if e.Stats() != stats {
		t.Fatalf("restore: stats=%+v, want %+v", e.Stats(), stats)
	}
	if got := finish(net, b, log); got != want {
		t.Fatalf("replay after restore diverged:\n got %s\nwant %s", got, want)
	}
}
