package experiments

import (
	"fmt"
	"strings"

	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// f1, f2, f3 format floats at fixed precision for table cells.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// sparkline renders a compact series for terminal output.
func sparkline(series []float64) string {
	if len(series) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	maxV := peak(series)
	var b strings.Builder
	for _, v := range series {
		idx := 0
		if maxV > 0 {
			idx = int(v / maxV * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// downsample reduces a series to at most n points by averaging windows.
func downsample(series []float64, n int) []float64 {
	if len(series) <= n || n <= 0 {
		return series
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i * len(series) / n
		hi := (i + 1) * len(series) / n
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range series[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// peak returns the largest value of a series (0 for an empty one).
func peak(series []float64) float64 {
	var p float64
	for _, v := range series {
		if v > p {
			p = v
		}
	}
	return p
}

// perCell renders a table with one row per grid cell.
func perCell(title string, header []string, row func(sweep.Result) []string) func([]sweep.Result) sweep.Table {
	return func(results []sweep.Result) sweep.Table {
		t := sweep.Table{Title: title, Header: header}
		for _, r := range results {
			t.Rows = append(t.Rows, row(r))
		}
		return t
	}
}

// metricCells formats the named metrics of a cell with f.
func metricCells(r sweep.Result, f func(float64) string, names ...string) []string {
	cells := make([]string, len(names))
	for i, name := range names {
		cells[i] = f(r.Metric(name))
	}
	return cells
}
