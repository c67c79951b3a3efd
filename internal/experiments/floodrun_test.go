package experiments

import (
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
// queues; the event heap holds only what is really in flight. With one
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
	queued := 0
	for _, bot := range run.Botnet.Bots {
		queued += bot.QueuedSolves()
	}
	if queued < 40_000 {
		t.Errorf("bots end with %d solves queued, want the ≈48,000-challenge backlog", queued)
	}
	if pending := run.Eng.Pending(); pending > 2000 {
		t.Errorf("event heap ends with %d pending events, want ≤ 2000 (bots hold %d queued solves)", pending, queued)
	}
}

// TestEngineStatsPinned pins the queue counters of one tiny-scale cell at
// two shard counts. What fired, by kind, and how many deliver legs waited
// behind a downlink FIFO's head are the simulation's and the same however
// it is sharded; how many deliver legs and train arrivals fired
// in place, how many cancelled timers had come to the front of a queue by the end and how
// long each heap got depend on the window bounds and the placement, and
// are deterministic for each. The packet heap peaks at 9 because each
// downlink holds one deliver leg in it; it peaked at 183 while every
// queued segment's leg waited there.
func TestEngineStatsPinned(t *testing.T) {
	base := tinyScale().Apply(Scenario{Label: "stats", ClientsSolve: true, BotsSolve: true})
	want := map[int]netsim.EngineStats{
		1: {TimersFired: 13259, PacketLegsFired: 199012, InPlace: 23650, ArrivalsInPlace: 66657, DeliversQueued: 74782, Discarded: 2833, PeakTimers: 487, PeakPackets: 9},
		2: {TimersFired: 13259, PacketLegsFired: 199012, InPlace: 23671, ArrivalsInPlace: 66740, DeliversQueued: 74782, Discarded: 2836, PeakTimers: 404, PeakPackets: 9},
	}
	for _, shards := range []int{1, 2} {
		sc := base
		sc.Shards = shards
		run, err := RunFlood(sc)
		if err != nil {
			t.Fatalf("RunFlood(shards=%d): %v", shards, err)
		}
		got := run.Net.EngineStats()
		if got != want[shards] {
			t.Errorf("shards=%d: EngineStats = %+v, want %+v", shards, got, want[shards])
		}
		var fired uint64
		for _, n := range run.Net.ShardStats().Events {
			fired += n
		}
		if got.TimersFired+got.PacketLegsFired != fired || max(got.InPlace, got.ArrivalsInPlace) > got.PacketLegsFired/2 {
			t.Errorf("shards=%d: %+v does not add up to the %d events fired", shards, got, fired)
		}
	}

	// The -verbose line carries them; the sinks never do.
	var debug, out strings.Builder
	exec := Exec{Debug: &debug, Sinks: []sweep.Sink{sweep.NewNDJSON(&out)}}
	if _, err := RunSweep(exec, sweep.Grid{Base: base}); err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	const line = "timers=13259 packet-legs=199012 in-place=23650 arrivals-in-place=66657 delivers-queued=74782 cancelled=2833 peak-timers=487 peak-packets=9"
	if !strings.Contains(debug.String(), line) {
		t.Errorf("debug output lacks %q:\n%s", line, debug.String())
	}
	if out.Len() == 0 || strings.Contains(out.String(), "in-place") {
		t.Errorf("sink output is empty or carries queue counters:\n%s", out.String())
	}
}
