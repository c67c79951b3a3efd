package experiments

import (
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

func TestAblationMemoryBoundUniformity(t *testing.T) {
	results := runExp(t, "ablation-membound", Scale{})
	if len(results) != 7 {
		t.Fatalf("rows = %d, want 7 devices", len(results))
	}
	// Memory-bound solve times must be far more uniform across the device
	// mix than compute-bound ones — the §7 fairness argument.
	hashCV, memCV := uniformityCV(results)
	if memCV >= hashCV {
		t.Errorf("membound CV %v not below hash CV %v", memCV, hashCV)
	}
	if hashCV < 0.5 {
		t.Errorf("hash CV %v suspiciously low — device spread not modelled", hashCV)
	}
	if memCV > 0.35 {
		t.Errorf("membound CV %v too high — memory rates should be near-uniform", memCV)
	}
	// The slowest device must see a dramatic speed-up relative to its
	// hash-bound time (the Pi profits most).
	if mem, hash := metric(t, results, "D1", "mem_solve_ms"), metric(t, results, "D1", "hash_solve_ms"); mem >= hash {
		t.Errorf("D1 membound %vms not faster than hash %vms", mem, hash)
	}
	if row := lastRow(mustExp(t, "ablation-membound"), results); row[0] != "CV (std/mean)" || row[1] != f3(hashCV) || row[2] != f3(memCV) {
		t.Errorf("summary row %q, want CVs %s %s", row, f3(hashCV), f3(memCV))
	}
}

func TestAblationAdaptiveRaisesDifficulty(t *testing.T) {
	// The grid stretches reduced scales to a 160 s timeline with a 90 s
	// attack, giving the per-5 s controller room to climb and a tail long
	// enough for the difficulty to decay after the protection-release
	// window. The cell also measures the late attack (75–105 s), once the
	// controller has climbed.
	e := mustExp(t, "ablation-adaptive")
	e.Cell = flood(func(run *FloodRun) ([]sweep.Metric, []sweep.Series) {
		metrics, series := adaptiveMetrics(run)
		late := windowMean(run.AttackerEstablishedRate(), 75, 105)
		return append(metrics, sweep.Metric{Name: "late_attack_cps", Value: late}), series
	})
	results, err := e.Run(tinyScale(), Exec{})
	if err != nil {
		t.Fatal(err)
	}
	peakM, finalM := metric(t, results, "adaptive", "peak_m"), metric(t, results, "adaptive", "final_m")
	if peakM <= 13 {
		t.Errorf("peak m = %v, want the controller to climb above the m=12 baseline", peakM)
	}
	// After the attack and the protection-release window the difficulty
	// decays towards the baseline.
	if finalM >= peakM {
		t.Errorf("final m = %v did not decay from peak %v", finalM, peakM)
	}
	// The smart bots keep solutions fresh, so at fixed m=12 they flood
	// effectively; the climbed adaptive server throttles them harder.
	fixedRate := metric(t, results, "fixed-m12", "late_attack_cps")
	adaptiveRate := metric(t, results, "adaptive", "late_attack_cps")
	if adaptiveRate >= fixedRate {
		t.Errorf("late-attack adaptive attacker rate %v not below fixed %v", adaptiveRate, fixedRate)
	}
	if row := lastRow(e, results); row[0] != "peak m" || row[1] != f1(peakM) || row[3] != f1(finalM) {
		t.Errorf("summary row %q, want peak m %s final m %s", row, f1(peakM), f1(finalM))
	}
}
