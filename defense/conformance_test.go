package defense_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/defense"
	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// conformanceScale is a deliberately small deployment: the conformance
// suite multiplies over every registered defense, so each run must cost
// tens of milliseconds, not seconds.
func conformanceScale() sweep.Scale {
	return sweep.Scale{
		Duration: 24 * time.Second, AttackStart: 6 * time.Second, AttackStop: 18 * time.Second,
		NumClients: 3, ClientRate: 8, BotCount: 3, PerBotRate: 80,
		Backlog: 64, AcceptBacklog: 64, Workers: 24, Seed: 11,
	}
}

// seriesKey compresses a run's headline series into one comparable value.
func seriesKey(run *experiments.FloodRun) string {
	listen, accept := run.QueueSizes()
	return fmt.Sprint(run.ClientThroughputMbps(), run.ServerThroughputMbps(),
		run.ServerCPU(), listen, accept, run.AttackerEstablishedRate())
}

// TestDefenseConformance is the contract every registered defense plugin
// must honour, whoever wrote it: the server still serves legitimate
// clients outside the attack window (the activation latch engages and
// releases rather than wedging), queue bounds hold under overflow
// pressure with the worker pool disabled, a defense registered without
// Info.Puzzles gives the same results at any puzzle parameters, and two
// runs of one scenario give the same results. Iterating defense.Infos() means a
// newly registered plugin is conformance-tested by existing CI with zero
// new test code.
func TestDefenseConformance(t *testing.T) {
	for _, info := range defense.Infos() {
		name := info.Name
		t.Run(string(name), func(t *testing.T) {
			t.Run("activation-latch", func(t *testing.T) {
				// A solving-client deployment under a connection flood:
				// whatever the defense does mid-attack, service before the
				// attack starts and after it releases must exist.
				sc := conformanceScale().Apply(sweep.Scenario{
					Label: "latch", Defense: name, Attack: sweep.AttackConnFlood,
					ClientsSolve: true,
				})
				run, err := experiments.RunFlood(sc)
				if err != nil {
					t.Fatalf("RunFlood: %v", err)
				}
				m := run.Server.Metrics()
				if m.SYNsReceived == 0 {
					t.Fatal("server saw no SYNs — scenario is vacuous")
				}
				if before := m.Established.SumRange(0, sc.AttackStart); before == 0 {
					t.Error("no handshakes completed before the attack (defense active when idle)")
				}
				if after := m.Established.SumRange(sc.AttackStop, sc.Duration); after == 0 {
					t.Error("no handshakes completed after the attack (defense never released)")
				}
			})

			t.Run("queue-overflow", func(t *testing.T) {
				// Nothing drains the accept queue and the listen queue is
				// tiny: the defense must keep both inside their bounds and
				// keep accounting sane under sustained overflow.
				sc := conformanceScale().Apply(sweep.Scenario{
					Label: "overflow", Defense: name, Attack: sweep.AttackSYNFlood,
					Workers: -1,
				})
				// After Apply: the scale owns the queue shape, so shrink it
				// here to force sustained overflow.
				sc.Backlog, sc.AcceptBacklog = 16, 8
				run, err := experiments.RunFlood(sc)
				if err != nil {
					t.Fatalf("RunFlood: %v", err)
				}
				if got := run.Server.ListenLen(); got > 16 {
					t.Errorf("listen queue %d exceeds backlog 16", got)
				}
				if got := run.Server.AcceptLen(); got > 8 {
					t.Errorf("accept queue %d exceeds backlog 8", got)
				}
				if run.Server.Metrics().SYNsReceived == 0 {
					t.Error("server saw no SYNs under flood")
				}
			})

			t.Run("params-wire-range", func(t *testing.T) {
				// Whatever a defense does to the puzzle engine at runtime
				// (the stepped plugin retunes it under overload), the
				// deployed parameters must stay inside the wire format's
				// valid range.
				sc := conformanceScale().Apply(sweep.Scenario{
					Label: "wire", Defense: name, Attack: sweep.AttackSYNFlood,
					ClientsSolve: true,
				})
				run, err := experiments.RunFlood(sc)
				if err != nil {
					t.Fatalf("RunFlood: %v", err)
				}
				if p := run.Server.Issuer().Params(); p.Validate() != nil {
					t.Errorf("final deployed params %v invalid: %v", p, p.Validate())
				}
			})

			// A defense registered without Info.Puzzles must not depend on
			// the puzzle parameters: the executor simulates sweep cells
			// that differ only in them once. The server panics if such a
			// defense reads them; this checks the run as a whole.
			t.Run("params-independence", func(t *testing.T) {
				if info.Puzzles {
					t.Skip("issues puzzles")
				}
				keys := make([]string, 0, 2)
				for _, p := range []puzzle.Params{{K: 1, M: 8, L: 32}, {K: 2, M: 17, L: 32}} {
					sc := conformanceScale().Apply(sweep.Scenario{
						Label: "params", Defense: name, Attack: sweep.AttackConnFlood,
						ClientsSolve: true, BotsSolve: true, Params: p,
					})
					run, err := experiments.RunFlood(sc)
					if err != nil {
						t.Fatalf("RunFlood at %v: %v", p, err)
					}
					keys = append(keys, seriesKey(run))
				}
				if keys[0] != keys[1] {
					t.Error("results depend on the puzzle parameters of a defense that issues no puzzles")
				}
			})

			// Two runs of one scenario must agree: a defense with hidden
			// package-level state or a map-order dependence breaks this.
			t.Run("determinism", func(t *testing.T) {
				sc := conformanceScale().Apply(sweep.Scenario{
					Label: "det", Defense: name, Attack: sweep.AttackConnFlood,
					ClientsSolve: true, BotsSolve: true,
				})
				first, err := experiments.RunFlood(sc)
				if err != nil {
					t.Fatalf("RunFlood: %v", err)
				}
				second, err := experiments.RunFlood(sc)
				if err != nil {
					t.Fatalf("RunFlood (rerun): %v", err)
				}
				if seriesKey(first) != seriesKey(second) {
					t.Error("defense produces different results on a rerun of the same scenario")
				}
			})
		})
	}
}

// TestAdaptiveCellsCacheRoundTrip proves the adaptive-flood cells are
// full cache citizens: a rerun of the arms-race grid against a warm cache
// does zero simulation work (100% hits, zero new misses) and reproduces
// every metric and share trajectory value-for-value from the stored JSON.
func TestAdaptiveCellsCacheRoundTrip(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scale, exec := conformanceScale(), sweep.Exec{Cache: cache}
	armsrace, _ := experiments.ByID("armsrace")
	first, err := armsrace.Run(scale, exec)
	if err != nil {
		t.Fatalf("cold ArmsRace: %v", err)
	}
	misses := cache.Misses()
	if misses == 0 || cache.Hits() != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0 hits and one miss per cell", cache.Hits(), misses)
	}
	second, err := armsrace.Run(scale, exec)
	if err != nil {
		t.Fatalf("warm ArmsRace: %v", err)
	}
	if cache.Misses() != misses {
		t.Errorf("warm run missed %d times, want 100%% hits", cache.Misses()-misses)
	}
	if cache.Hits() != misses {
		t.Errorf("warm run hits = %d, want %d (every cell)", cache.Hits(), misses)
	}
	if len(first) != len(second) {
		t.Fatalf("result count changed across cache: %d vs %d", len(first), len(second))
	}
	for i := range first {
		a, b := first[i], second[i]
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("cell %q: metrics changed through the cache:\n%v\nvs\n%v", a.Scenario.Label, a.Metrics, b.Metrics)
		}
		if !reflect.DeepEqual(a.Series, b.Series) {
			t.Errorf("cell %q: series changed through the cache", a.Scenario.Label)
		}
	}
}
