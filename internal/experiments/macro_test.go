package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// diffScenario is the ≤64-source flood both executions run: small enough
// to afford per-bot objects, busy enough that sources interleave on the
// server.
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

// measurement captures everything the differential compares: the standard
// metric/series set plus the raw attack-side and server-side counters.
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
		t.Fatalf("RunFlood(%q, shards=%d): %v", sc.Label, sc.Shards, err)
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

// TestMacroPerBotDifferential is the tentpole's correctness oracle: a
// small spoofed flood executed per-bot (with the macro-comparable compact
// RNG) and macro-aggregated must produce byte-identical measurements at
// every tested shard count. The comparison covers the Read-free spoofed
// floods — the strategies whose per-source randomness is draw-for-draw
// reproducible through the fleet's shared RNG wrapper (see MacroFleet).
func TestMacroPerBotDifferential(t *testing.T) {
	// adaptive-flood rides the same oracle: its replicator state is
	// per-instance (per bot / per macro slot) and its draws are Read-free,
	// so learned budget shares must be draw-for-draw identical too.
	for _, attack := range []sweep.Attack{AttackSYNFlood, AttackPulseFlood, AttackAdaptiveFlood} {
		var want []byte
		for _, shards := range []int{1, 2, 4} {
			perBot := diffScenario(attack)
			perBot.CompactBotRNG = true
			perBot.Shards = shards

			macro := diffScenario(attack)
			macro.BotCount = sweep.NoBotnet
			macro.MacroSources = 48
			macro.Shards = shards

			got := measure(t, perBot)
			gotMacro := measure(t, macro)
			if string(got) != string(gotMacro) {
				t.Errorf("%s shards=%d: per-bot and macro measurements differ\nper-bot: %s\nmacro:   %s",
					attack, shards, got, gotMacro)
				continue
			}
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Errorf("%s shards=%d: measurements differ from shards=1 baseline", attack, shards)
			}
		}
	}
}

// macroPins are the NDJSON digests of TestMacroStrategiesPinned's cells,
// the same at every shard count.
var macroPins = map[sweep.Attack]string{
	AttackSYNFlood:      "9740c21d27426345",
	AttackConnFlood:     "b59bea91f0412365",
	AttackSolutionFlood: "f63184d0c726d0db",
	AttackReplayFlood:   "6dacb2bae1e196e7",
	AttackPulseFlood:    "e0ffbdad4909b980",
	AttackAdaptiveFlood: "e07ddaa10c66c4b5",
}

// TestMacroStrategiesPinned runs every registered attack in macro mode
// through the unchanged BotCtx facade — including the stateful (per-slot)
// replay flood and the CPU-charging solution/connection floods — and pins
// what each produces. TestMacroPerBotDifferential covers only the
// Read-free floods that never solve; this pin is what holds the rest,
// and the per-source values a solving source reads (its device, its RNG
// and ISN streams), to their bytes. The digest covers the standard
// metric set plus the attacker-side series: sent rate and CPU
// utilisation, which is where a solve charged to the wrong device shows.
func TestMacroStrategiesPinned(t *testing.T) {
	for _, attack := range sweep.KnownAttacks() {
		for _, shards := range []int{1, 2} {
			sc := diffScenario(attack)
			sc.Duration = 20 * time.Second
			sc.AttackStop = 15 * time.Second
			sc.BotCount = sweep.NoBotnet
			sc.MacroSources = 30
			sc.BotsSolve = true
			sc.Shards = shards
			run, err := RunFlood(sc)
			if err != nil {
				t.Fatalf("RunFlood(macro %s, shards=%d): %v", attack, shards, err)
			}
			if total := run.Macro.TotalSent(0, sc.Duration); total == 0 {
				t.Errorf("macro %s shards=%d sent no packets", attack, shards)
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
				t.Errorf("macro %s shards=%d: digest %s, pinned %s", attack, shards, got, macroPins[attack])
			}
		}
	}
}

// macroHeapBudget is the pinned retained-heap budget for a 100k-source
// macro flood: the CI bounded-memory wall. The flat per-source state
// costs ~60 B/source (~6 MB at 100k); the rest of the budget covers the
// server, metrics series, and the event pool after the synchronized
// first-tick burst. A per-bot run of the same population would retain
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
	compact := sc
	compact.CompactBotRNG = true
	if sweep.Hash("exp", compact) == plain {
		t.Error("CompactBotRNG did not change the cache hash")
	}
}

// TestFig6SketchDifferential runs one Fig. 6 difficulty cell both ways —
// exact CDF and O(1) streaming sketch — on the same workload and bounds
// the sketch's error. The sample count is identical and the mean agrees
// to float rounding (the sketch sums seconds, the CDF sums microseconds);
// the P² quantile estimates must land within 10% of the exact values —
// the pinned envelope for this long-tailed solve-time distribution at the
// default 300 samples per cell.
func TestFig6SketchDifferential(t *testing.T) {
	grid := connTimeGrid([]uint8{2}, []uint8{10}, 300, 7)
	exact := runExp(t, "fig6", Scale{}, grid)
	// Sketch cells cache under their own namespace so exact and sketched
	// results never alias.
	sketch := Experiment{ID: "fig6-sketch", Grid: func(Scale) sweep.Grid { return grid }, Cell: fig6Cell(true)}
	sketched, err := sketch.Run(Scale{}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	em, sm := exact[0], sketched[0]
	if got, want := sm.Metric("samples"), em.Metric("samples"); got != want {
		t.Errorf("samples: sketch %v != exact %v", got, want)
	}
	if got, want := sm.Metric("conn_time_mean_us"), em.Metric("conn_time_mean_us"); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("mean: sketch %v vs exact %v beyond float rounding", got, want)
	}
	for _, name := range []string{"conn_time_p10_us", "conn_time_p50_us", "conn_time_p90_us"} {
		got, want := sm.Metric(name), em.Metric(name)
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("%s: sketch %v vs exact %v, rel err %.4f > 0.10", name, got, want, rel)
		} else {
			t.Logf("%s: sketch %v exact %v rel err %.4f", name, got, want, rel)
		}
	}
}
