package experiments

import (
	"runtime"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// TestAllocBudgetFloodCell is the tier-1 gate on a whole cell's allocation
// count, the machine-independent column of the benchmark's
// experiments.allocs_per_op: the tiny-scale connection-flood cell of
// TestEngineStatsPinned (4 solving clients, 4 greedy solving bots, 60 s)
// under a ceiling 25 % over the 8,390 it measures on go1.24. The count
// is the runtime's and moves a little between Go releases; what the
// ceiling catches is a per-packet, per-challenge or per-connection
// allocation coming back — while the challenge codec allocated, this cell
// took 54,606, and 18,907 while connection records were garbage.
func TestAllocBudgetFloodCell(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	sc := tinyScale().Apply(Scenario{Label: "allocs", ClientsSolve: true, BotsSolve: true})
	const ceiling = 10_500
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
// once, under a ceiling 29 % over the 1,700 it measures on go1.24 (2,389
// while the queue gauges logged every change). While every tick boxed its
// context and deferred its send in a closure it took 22,393, two per
// source; the ceiling catches a per-tick or per-source allocation coming
// back.
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
	const ceiling = 2_200
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
// this cell measures 108,026 of 198,087 legs (0.545); before packet trains
// it was 175,362 (0.881). The ceiling catches a response going back to one
// heap entry per segment. The second gate is the packet heap's peak
// length: 9, because a downlink's queued deliver legs wait in its FIFO
// and only the head is in the heap. It was 183 while every queued
// segment's leg waited in the heap, and the ceiling of 18 catches that
// coming back.
func TestHeapBudgetFloodCell(t *testing.T) {
	sc := tinyScale().Apply(Scenario{Label: "heap", ClientsSolve: true, BotsSolve: true})
	run, err := RunFlood(sc)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	const ceiling, peakCeiling = 0.60, 18
	st := run.Eng.Stats()
	heaped := st.PacketLegsFired - st.InPlace - st.ArrivalsInPlace
	if share := float64(heaped) / float64(st.PacketLegsFired); share > ceiling {
		t.Errorf("tiny connection-flood cell: %d of %d packet legs (%.3f) took a heap round trip, ceiling %.2f",
			heaped, st.PacketLegsFired, share, ceiling)
	}
	if st.PeakPackets > peakCeiling {
		t.Errorf("tiny connection-flood cell: packet heap peaked at %d events, ceiling %d", st.PeakPackets, peakCeiling)
	}
}

// TestAllocBudgetGridCells gates two cells of the benchmark's figure grid
// (20 s, 8 solving clients, 6 solving bots, m = 17, seed 1) on objects and
// bytes allocated per RunFlood: the none × synflood cell, where every
// half-open and established connection goes through the stateful
// handshake, and the cookies × connflood cell, whose bots pin the worker
// pool. Measured on go1.24 at 3,530 objects / 503 KiB and 4,749 / 928
// KiB; while connection records and their timer closures were garbage and
// the queue gauges logged every change, they took 18,731 / 1,302 KiB and
// 12,671 / 1,345 KiB. The ceilings sit 8–29 % over the measurement.
func TestAllocBudgetGridCells(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	for _, tc := range []struct {
		defense      Defense
		attack       Attack
		objects, kib uint64
	}{
		{DefenseNone, AttackSYNFlood, 4_400, 700},
		{DefenseCookies, AttackConnFlood, 6_000, 1_000},
	} {
		sc := Scenario{
			Label:    "grid-cell-allocs",
			Duration: 20 * time.Second, AttackStart: 5 * time.Second, AttackStop: 15 * time.Second,
			NumClients: 8, ClientRate: 10, BotCount: 6, PerBotRate: 100,
			Backlog: 256, AcceptBacklog: 256, Workers: 48,
			ClientsSolve: true, BotsSolve: true,
			Defense: tc.defense, Attack: tc.attack, Params: puzzle.Params{M: 17}, Seed: 1,
		}
		run := func() {
			if _, err := RunFlood(sc); err != nil {
				t.Fatalf("RunFlood(%s × %s): %v", tc.defense, tc.attack, err)
			}
		}
		run() // warm-up: package-level state, registries
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		objects, kib := after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)/1024
		t.Logf("%s × %s: %d objects, %d KiB", tc.defense, tc.attack, objects, kib)
		if objects > tc.objects || kib > tc.kib {
			t.Errorf("%s × %s: %d objects / %d KiB per cell, ceiling %d / %d KiB",
				tc.defense, tc.attack, objects, kib, tc.objects, tc.kib)
		}
	}
}
