package main

import (
	"errors"
	"reflect"
	"regexp"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
)

func testSpec(t *testing.T) (*spec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return sp, root
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the
// driver enforces before a single run.
func TestSpecWithinContract(t *testing.T) {
	sp, _ := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", sp.RunSeconds)
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric setup_s with unit "s" and better "lower"`)
	}
	for _, m := range sp.PerLayer {
		use(m.Name)
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}

	var declared, registered []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		registered = append(registered, w.name)
	}
	if !reflect.DeepEqual(declared, registered) {
		t.Errorf("BENCHMARK.json declares workloads %v, the harness registers %v", declared, registered)
	}
}

// TestEveryDeclaredMetricEmitted runs each workload at test scale (two
// operations) both ways and requires exactly the declared metrics, each
// once, with the declared unit.
func TestEveryDeclaredMetricEmitted(t *testing.T) {
	sp, root := testSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := run(w, sp, config{seed: 1, traced: traced, root: root, ops: 2})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Result.Correct || out.Result.Attempted != 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d notes=%v",
					w.name, traced, out.Result.Correct, out.Result.Attempted, out.Notes)
			}
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			if len(out.Result.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.name, traced, len(out.Result.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := out.Result.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is not emitted", w.name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, got.Unit, d.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, got.Value)
				}
			}
		}
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{19, ""}, {20, "p50"}, {39, "p50"}, {40, "p75"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {20000, "p99.9"}, {100000, "p99.99"}} {
		got, ok := highestTail(c.n)
		if ok != (c.want != "") || got.name != c.want {
			t.Errorf("highestTail(%d) = %q, %v; want %q", c.n, got.name, ok, c.want)
		}
		if ok && got.beyond(c.n) < 10 {
			t.Errorf("highestTail(%d) = %s with only %d samples beyond it", c.n, got.name, got.beyond(c.n))
		}
	}
	// 1..1000: exactly ten samples (991..1000) lie beyond p99.
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := (tail{"p99", 100}).of(sorted); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := (tail{"p50", 2}).of(sorted[:5]); got != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},    // nested children below
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 20},   // grandchild: not the root's
		{ID: 6, Parent: 2, Name: "a2", Start: 15, End: 25},   // overlaps a1 by 5
		{ID: 7, Parent: 3, Name: "b1", Start: 30, End: 60},   // covers b entirely
		{ID: 8, Parent: 0, Name: "other", Start: 0, End: 50}, // a second root
	}
	// root: 100 − ([10,60] ∪ [90,100]) = 100 − 60 = 40.
	want := []int64{40, 15, 0, 30, 10, 10, 30, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName([]span{
		{ID: 1, Op: 0, Name: "w", Start: 0, End: 5},
		{ID: 2, Op: 0, Name: "w", Start: 5, End: 7},
		{ID: 3, Op: 1, Name: "w", Start: 10, End: 14},
	})
	if got := byName["w"]; !reflect.DeepEqual(got, []float64{7, 4}) {
		t.Errorf("per-operation sums = %v, want [7 4]", got)
	}
}

// failing is an instance whose odd operations fail.
type failing struct{}

func (failing) op(i int, _ *tracer) error {
	if i%2 == 1 {
		return errors.New("odd")
	}
	return nil
}
func (failing) check() error                       { return errors.New("check") }
func (failing) layers(func(string, float64)) error { return nil }
func (failing) digest() string                     { return "" }
func (failing) close() error                       { return nil }

// TestFailuresAreCounted: failed operations and a failed workload-wide
// check both count against the attempted operations.
func TestFailuresAreCounted(t *testing.T) {
	sp, root := testSpec(t)
	w := workload{name: "failing", setup: func(env) (instance, error) { return failing{}, nil }}
	out, err := run(w, sp, config{seed: 1, root: root, ops: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Correct || out.Result.Attempted != 4 || out.Result.Failed != 3 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false, 4, 3 (two operations and the check)",
			out.Result.Correct, out.Result.Attempted, out.Result.Failed)
	}
}

// TestDigestMismatchFails: a cell whose NDJSON differs from the reference
// run's is a failed operation; the same cell against its own reference is
// not.
func TestDigestMismatchFails(t *testing.T) {
	sc := experiments.Scenario{
		Label:    "bench-test",
		Duration: 3 * time.Second, AttackStart: time.Second, AttackStop: 2 * time.Second,
		NumClients: 2, ClientRate: 5, BotCount: 2, PerBotRate: 20, Seed: 1,
		ClientsSolve: true, BotsSolve: true,
	}
	cells, err := newSimCells([]experiments.Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	if err := cells.op(0, nil); err != nil {
		t.Errorf("same seed, same bytes expected: %v", err)
	}
	other := sc
	other.Seed = 2
	cells.scenarios[0] = other
	if err := cells.op(1, nil); err == nil {
		t.Error("a run that differs from the reference digest passed")
	}
}
