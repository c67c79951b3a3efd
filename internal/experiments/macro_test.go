package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// diffScenario is a small flood, busy enough that sources interleave on
// the server.
func diffScenario(attack sweep.Attack) Scenario {
	return Scenario{
		Label:    "diff-" + string(attack),
		Duration: 30 * time.Second, AttackStart: 5 * time.Second, AttackStop: 25 * time.Second,
		NumClients: 3, ClientRate: 8,
		Defense: DefensePuzzles, Attack: attack,
		BotCount: 48, PerBotRate: 60,
		Backlog: 128, AcceptBacklog: 128, Workers: 24,
		Seed: 7,
	}
}

// measurement captures everything TestPopulationCellsPinned pins: the
// standard metric/series set plus the raw attack-side and server-side
// counters.
type measurement struct {
	Metrics    []sweep.Metric
	Series     []sweep.Series
	SentRate   []float64
	Unroutable uint64
	SYNsRecv   uint64
	SYNsDrop   uint64
}

func measure(t *testing.T, sc Scenario) []byte {
	t.Helper()
	run, err := RunFlood(sc)
	if err != nil {
		t.Fatalf("RunFlood(%q): %v", sc.Label, err)
	}
	metrics, series := StandardMetrics(run)
	m := measurement{
		Metrics:    metrics,
		Series:     series,
		SentRate:   run.MeasuredAttackRate(),
		Unroutable: run.Net.Unroutable(),
		SYNsRecv:   run.Server.Metrics().SYNsReceived,
		SYNsDrop:   run.Server.Metrics().SYNsDropped,
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return out
}

// populationPins are TestPopulationCellsPinned's digests, per attack,
// without and with solving bots. They were taken while two executions
// still existed — one host object per bot on the compact RNG stream, and
// the macro fleet — and both measured exactly these bytes.
var populationPins = map[sweep.Attack][2]string{
	AttackSYNFlood:      {"52b3659dc04dac1c", "52b3659dc04dac1c"},
	AttackConnFlood:     {"08e5bd0c9797f075", "f06305c02dfc1099"},
	AttackSolutionFlood: {"b69b05a26f57c567", "b69b05a26f57c567"},
	AttackReplayFlood:   {"2a3e107d72a74581", "2a3e107d72a74581"},
	AttackPulseFlood:    {"401c7b1d488300a1", "401c7b1d488300a1"},
	AttackAdaptiveFlood: {"62dd135e51d9b3e3", "88af15d3077b647f"},
}

// TestPopulationCellsPinned pins a 48-bot flood's measurements for every
// registered attack, with bots solving and not. Stateful strategies
// (replayflood, adaptive-flood) hold per-source state, so this is also
// what holds the fleet to ticking each of them only after its own
// SYN-ACKs and solve completions have been delivered, as a host of its
// own would.
func TestPopulationCellsPinned(t *testing.T) {
	for _, attack := range sweep.KnownAttacks() {
		for i, solve := range []bool{false, true} {
			sc := diffScenario(attack)
			sc.BotsSolve = solve
			sum := sha256.Sum256(measure(t, sc))
			if got, want := hex.EncodeToString(sum[:8]), populationPins[attack][i]; got != want {
				t.Errorf("%s solve=%v: digest %s, pinned %s", attack, solve, got, want)
			}
		}
	}
}

// macroPins are the NDJSON digests of TestMacroStrategiesPinned's cells.
// The digest covers the cell's Scenario JSON, so adding or removing a
// Scenario field moves every pin.
var macroPins = map[sweep.Attack]string{
	AttackSYNFlood:      "4359d234a10c95dc",
	AttackConnFlood:     "e8f0f6f2cde09561",
	AttackSolutionFlood: "d00c99ac696cee93",
	AttackReplayFlood:   "e18ef1176bbc3764",
	AttackPulseFlood:    "60b73c7a5444b8ef",
	AttackAdaptiveFlood: "1b4e5d3a997c2a95",
}

// TestMacroStrategiesPinned runs every registered attack in macro mode
// through the BotCtx facade — including the stateful (per-slot) replay
// flood and the CPU-charging solution/connection floods — and pins what
// each produces: the per-source values a solving source reads (its
// device, its RNG and ISN streams), to their bytes. The digest
// covers the standard metric set plus the attacker-side series: sent
// rate and CPU utilisation, which is where a solve charged to the wrong
// device shows.
func TestMacroStrategiesPinned(t *testing.T) {
	for _, attack := range sweep.KnownAttacks() {
		sc := diffScenario(attack)
		sc.Duration = 20 * time.Second
		sc.AttackStop = 15 * time.Second
		sc.BotCount = sweep.NoBotnet
		sc.MacroSources = 30
		sc.BotsSolve = true
		run, err := RunFlood(sc)
		if err != nil {
			t.Fatalf("RunFlood(macro %s): %v", attack, err)
		}
		if total := run.Macro.TotalSent(0, sc.Duration); total == 0 {
			t.Errorf("macro %s sent no packets", attack)
		}
		metrics, series := StandardMetrics(run)
		series = append(series,
			sweep.Series{Name: "attack_sent_pps", Values: run.MeasuredAttackRate()},
			sweep.Series{Name: "attacker_cpu_pct", Values: run.AttackerCPU()})
		var out bytes.Buffer
		if err := sweep.NewNDJSON(&out).Write(sweep.Result{Experiment: "macro-pin", Scenario: run.Cfg, Metrics: metrics, Series: series}); err != nil {
			t.Fatalf("NDJSON: %v", err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:8]); got != macroPins[attack] {
			t.Errorf("macro %s: digest %s, pinned %s", attack, got, macroPins[attack])
		}
	}
}

// macroHeapBudget is the pinned retained-heap budget for a 100k-source
// macro flood: the CI bounded-memory wall. The flat per-source state
// costs ~60 B/source (~6 MB at 100k); the rest of the budget covers the
// server, metrics series, and the event pool after the synchronized
// first-tick burst. One object with a stdlib RNG per source would retain
// >500 MB in RNG state alone, so a regression back to O(sources) objects
// blows this budget immediately.
const macroHeapBudget = 128 << 20

// TestMacroFloodBoundedMemory runs a 100k-source macro SYN flood and
// asserts the retained heap stays under the pinned budget.
func TestMacroFloodBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-memory wall is a dedicated CI step")
	}
	sc := Scenario{
		Label:    "macro-100k",
		Duration: 20 * time.Second, AttackStart: 2 * time.Second, AttackStop: 18 * time.Second,
		NumClients: 2, ClientRate: 4,
		Defense: DefensePuzzles, Attack: AttackSYNFlood,
		BotCount: sweep.NoBotnet, MacroSources: 100_000, PerBotRate: 0.05,
		Backlog: 512, AcceptBacklog: 128, Workers: 24,
		Seed: 11,
	}
	run, err := RunFlood(sc)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	if total := run.Macro.TotalSent(0, sc.Duration); total < float64(sc.MacroSources) {
		t.Errorf("TotalSent = %v, want at least one packet per source", total)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("sources=%d retained HeapAlloc=%d MiB HeapSys=%d MiB",
		sc.MacroSources, ms.HeapAlloc>>20, ms.HeapSys>>20)
	if ms.HeapAlloc > macroHeapBudget {
		t.Errorf("retained HeapAlloc %d MiB exceeds pinned budget %d MiB",
			ms.HeapAlloc>>20, uint64(macroHeapBudget)>>20)
	}
	// Keep the run (and its O(sources) state) live through the measurement.
	runtime.KeepAlive(run)
}

// TestMacroSourcesInCacheHash pins the new knobs' cache identity: zero
// values keep legacy hashes byte-identical, non-zero values mint new ones.
func TestMacroSourcesInCacheHash(t *testing.T) {
	sc := Scenario{Label: "hash", Seed: 3}
	plain := sweep.Hash("exp", sc)

	macro := sc
	macro.MacroSources = 1000
	if sweep.Hash("exp", macro) == plain {
		t.Error("MacroSources did not change the cache hash")
	}
}
