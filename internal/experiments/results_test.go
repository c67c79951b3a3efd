package experiments

import (
	"strings"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

func TestTableRendering(t *testing.T) {
	tbl := sweep.Table{
		Title:  "Demo",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"a", "1"}, {"longer-cell", "2"}},
	}
	out := tbl.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	// Columns are aligned: "value" starts at the same offset everywhere.
	idx := strings.Index(lines[1], "value")
	for _, line := range lines[2:] {
		if len(line) <= idx {
			t.Fatalf("row shorter than header: %q", line)
		}
	}
}

func TestDownsample(t *testing.T) {
	in := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	got := downsample(in, 4)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("downsample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// No-op when already small enough.
	if out := downsample(in, 100); len(out) != len(in) {
		t.Errorf("downsample enlarged: %d", len(out))
	}
	if out := downsample(nil, 4); len(out) != 0 {
		t.Errorf("downsample(nil) = %v", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Errorf("sparkline(nil) = %q", got)
	}
	out := sparkline([]float64{0, 1, 2, 4})
	if len([]rune(out)) != 4 {
		t.Errorf("sparkline length = %d, want 4", len([]rune(out)))
	}
	// All-zero series renders the lowest level without dividing by zero.
	flat := sparkline([]float64{0, 0, 0})
	if len([]rune(flat)) != 3 {
		t.Errorf("flat sparkline = %q", flat)
	}
}

// Determinism at the experiment level: identical configs produce identical
// series, bit for bit.
func TestRunFloodDeterministic(t *testing.T) {
	cfg := TinyScale().Apply(Scenario{
		Defense:      DefenseCookies, // cheap, no solving
		Attack:       AttackSYNFlood,
		ClientsSolve: true,
	})
	a, err := RunFlood(cfg)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	b, err := RunFlood(cfg)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	sa := a.ServerThroughputMbps()
	sb := b.ServerThroughputMbps()
	if len(sa) != len(sb) {
		t.Fatalf("series lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("bucket %d differs: %v vs %v", i, sa[i], sb[i])
		}
	}
}
