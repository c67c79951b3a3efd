package experiments

import (
	"testing"
	"time"
)

// TestAllocBudgetFloodCell is the tier-1 gate on a whole cell's allocation
// count, the machine-independent column of the benchmark's
// experiments.allocs_per_op: the tiny-scale connection-flood cell of
// TestEngineStatsPinned (4 solving clients, 4 greedy solving bots, 60 s)
// under a ceiling 21 % over the 18,999 it measures on go1.24. The count
// is the runtime's and moves a little between Go releases; what the
// ceiling catches is a per-packet or per-challenge allocation coming
// back — while the challenge codec allocated, this cell took 54,606.
func TestAllocBudgetFloodCell(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	sc := tinyScale().Apply(Scenario{Label: "allocs", ClientsSolve: true, BotsSolve: true})
	const ceiling = 23_000
	got := testing.AllocsPerRun(1, func() {
		if _, err := RunFlood(sc); err != nil {
			t.Fatalf("RunFlood: %v", err)
		}
	})
	if got > ceiling {
		t.Errorf("tiny connection-flood cell: %.0f allocations, ceiling %d", got, ceiling)
	}
}

// TestAllocBudgetMacroCell is the same gate on a macro cell: the
// benchmark's macro_flood shape (a spoofed SYN flood at 0.05 pps per
// source against puzzles, 2 clients, 20 s) at 10,000 sources, each ticking
// once, under a ceiling 26 % over the 2,389 it measures on go1.24. While
// every tick boxed its context and deferred its send in a closure it took
// 22,393, two per source; the ceiling catches a per-tick or per-source
// allocation coming back.
func TestAllocBudgetMacroCell(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	sc := Scenario{
		Label:    "macro-allocs",
		Duration: 20 * time.Second, AttackStart: 2 * time.Second, AttackStop: 18 * time.Second,
		NumClients: 2, ClientRate: 4,
		Defense: DefensePuzzles, Attack: AttackSYNFlood,
		BotCount: NoBotnet, MacroSources: 10_000, PerBotRate: 0.05,
		Backlog: 512, AcceptBacklog: 128, Workers: 24, Seed: 1,
	}
	const ceiling = 3_000
	got := testing.AllocsPerRun(1, func() {
		if _, err := RunFlood(sc); err != nil {
			t.Fatalf("RunFlood: %v", err)
		}
	})
	if got > ceiling {
		t.Errorf("10,000-source macro cell: %.0f allocations, ceiling %d", got, ceiling)
	}
}

// TestHeapBudgetFloodCell is the machine-independent gate on the event
// queue: of the tiny cell's packet legs, the share that went through the
// packet heap — pushed and popped, rather than fired in place as a deliver
// leg (EngineStats.InPlace) or as a train's next arrival
// (ArrivalsInPlace). The counts are the simulation's, not the runtime's:
// this cell measures 108,705 of 199,012 legs (0.546); before packet trains
// it was 175,362 (0.881). The ceiling catches a response going back to one
// heap entry per segment.
func TestHeapBudgetFloodCell(t *testing.T) {
	sc := tinyScale().Apply(Scenario{Label: "heap", ClientsSolve: true, BotsSolve: true})
	run, err := RunFlood(sc)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	const ceiling = 0.60
	st := run.Net.EngineStats()
	heaped := st.PacketLegsFired - st.InPlace - st.ArrivalsInPlace
	if share := float64(heaped) / float64(st.PacketLegsFired); share > ceiling {
		t.Errorf("tiny connection-flood cell: %d of %d packet legs (%.3f) took a heap round trip, ceiling %.2f",
			heaped, st.PacketLegsFired, share, ceiling)
	}
}
