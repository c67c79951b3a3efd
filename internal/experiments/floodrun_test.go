package experiments

import (
	"testing"
	"time"
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
