package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestGreedyBotBacklogStaysOutOfEventHeap pins the run-queue's effect on
// the paper-shaped connection-flood cell (the benchmark's flood_cell): 12
// greedy IoT-class bots challenged 200×/s at (k=2, m=17) finish about one
// solve every two seconds each, so nearly all of their ≈48,000 queued
// solves are still pending when the run ends. They wait in the bots'
// CPU queues; the event heap holds only what is really in flight. With one
// timer per solve the heap ended this cell at 47,977 events.
func TestGreedyBotBacklogStaysOutOfEventHeap(t *testing.T) {
	run, err := RunFlood(Scenario{
		Label:    "greedy-backlog",
		Duration: 30 * time.Second, AttackStart: 5 * time.Second, AttackStop: 25 * time.Second,
		NumClients: 24, ClientRate: 20, BotCount: 12, PerBotRate: 200,
		Backlog: 512, AcceptBacklog: 512, Workers: 64, Seed: 1,
		ClientsSolve: true, BotsSolve: true,
	})
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	queued := run.Macro.QueuedSolves()
	if queued < 40_000 {
		t.Errorf("bots end with %d solves queued, want the ≈48,000-challenge backlog", queued)
	}
	if pending := run.Eng.Pending(); pending > 2000 {
		t.Errorf("event heap ends with %d pending events, want ≤ 2000 (bots hold %d queued solves)", pending, queued)
	}
}

// floodCellHeapBudget is the pinned retained-heap budget of the
// paper-shaped connection-flood cell (the benchmark's flood_cell). The
// bots' ≈48,000 queued solves are counted, not stored, once they queue
// behind one that completes after the run's end; storing each of them
// retained 4.4 MiB.
const floodCellHeapBudget = 2 << 20

// TestFloodCellBoundedMemory runs the flood_cell scenario and asserts
// that what the live FloodRun retains stays under floodCellHeapBudget
// while the bots still report their whole backlog.
func TestFloodCellBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-memory wall is a dedicated CI step")
	}
	sc := Scenario{
		Label:    "flood-cell",
		Duration: 30 * time.Second, AttackStart: 5 * time.Second, AttackStop: 25 * time.Second,
		NumClients: 24, ClientRate: 20, BotCount: 12, PerBotRate: 200,
		Backlog: 512, AcceptBacklog: 512, Workers: 64, Seed: 1,
		ClientsSolve: true, BotsSolve: true,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run, err := RunFlood(sc)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	queued := run.Macro.QueuedSolves()
	t.Logf("retained HeapAlloc %.2f MiB with %d solves queued", float64(retained)/(1<<20), queued)
	if retained > floodCellHeapBudget {
		t.Errorf("retained HeapAlloc %.2f MiB exceeds pinned budget %d MiB",
			float64(retained)/(1<<20), floodCellHeapBudget>>20)
	}
	if queued < 40_000 {
		t.Errorf("bots end with %d solves queued, want the ≈48,000-challenge backlog", queued)
	}
	// Keep the run live through the measurement.
	runtime.KeepAlive(run)
}

// TestEngineStatsPinned pins the queue counters of one tiny-scale cell:
// what fired, by kind, how many deliver legs and train arrivals fired in
// place, how many deliver legs waited behind a downlink FIFO's head, how
// many train legs to the clients were deferred instead of fired, how many
// cancelled timers had come to the front of a queue by the end and how
// long each heap got. The packet heap peaks at 9 because each downlink
// holds one deliver leg in it; it peaked at 183 while every queued
// segment's leg waited there. Before deferred train delivery the cell
// fired 198,087 packet legs (66,460 arrivals and 23,601 deliver legs in
// place, 74,366 deliver legs queued); fired and deferred legs still add
// up to that.
func TestEngineStatsPinned(t *testing.T) {
	base := tinyScale().Apply(Scenario{Label: "stats", ClientsSolve: true, BotsSolve: true})
	want := netsim.EngineStats{TimersFired: 13229, PacketLegsFired: 50683, InPlace: 23772, ArrivalsInPlace: 840, DeliversQueued: 114, Deferred: 147404, Discarded: 2822, PeakTimers: 490, PeakPackets: 9}
	run, err := RunFlood(base)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	got := run.Eng.Stats()
	if got != want {
		t.Errorf("EngineStats = %+v, want %+v", got, want)
	}
	if fired := run.Eng.Fired(); got.TimersFired+got.PacketLegsFired != fired || max(got.InPlace, got.ArrivalsInPlace) > got.PacketLegsFired/2 {
		t.Errorf("%+v does not add up to the %d events fired", got, fired)
	}
	if legs := got.PacketLegsFired + got.Deferred; legs != 198087 {
		t.Errorf("%d packet legs fired or deferred, want the 198,087 one event per leg fires", legs)
	}

	// The -verbose line carries them; the sinks never do.
	var debug, out strings.Builder
	exec := Exec{Debug: &debug, Sinks: []sweep.Sink{sweep.NewNDJSON(&out)}}
	if _, err := RunSweep(exec, sweep.Grid{Base: base}); err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	const line = "timers=13229 packet-legs=50683 in-place=23772 arrivals-in-place=840 delivers-queued=114 deferred=147404 cancelled=2822 peak-timers=490 peak-packets=9"
	if !strings.Contains(debug.String(), line) {
		t.Errorf("debug output lacks %q:\n%s", line, debug.String())
	}
	if out.Len() == 0 || strings.Contains(out.String(), "in-place") {
		t.Errorf("sink output is empty or carries queue counters:\n%s", out.String())
	}
}
