package sweep

import (
	"fmt"
	"strings"
)

// Metric is one named scalar measurement of a completed cell.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Series is one named per-bucket measurement series of a completed cell.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// ExecStats describes how the runner pool executed the grid a Result
// belongs to (pool width and jobs claimed) and the grid's peak heap. It
// is per-process observability only: excluded from serialisation, the
// result cache, and determinism comparisons, because goroutine scheduling
// makes it vary run to run while the Result's metrics and series never do.
type ExecStats struct {
	Workers int
	Jobs    int64
	// Steals is never written and reads 0.
	//
	// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
	Steals int64
	// MeanQueueDepth is never written and reads 0.
	//
	// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
	MeanQueueDepth float64
	// PeakHeapAlloc and PeakHeapSys are the largest live-heap and
	// OS-reserved-heap sizes (bytes) sampled after any cell of the grid
	// completed — the memory headroom signal for scale runs. Sampled
	// process-wide, so concurrent cells share one peak.
	PeakHeapAlloc uint64
	PeakHeapSys   uint64
}

// Result is the structured record of one completed grid cell: the
// canonical scenario that ran plus its named metrics and series. It is
// the primary representation of experiment output — sinks serialise it,
// the cache stores its metrics and series, and the pretty-printed Table
// is derived from it.
type Result struct {
	// Experiment is the driver that produced the cell (e.g. "fig12"); it
	// also namespaces the cell in the result cache.
	Experiment string `json:"experiment"`
	// Scenario is the canonical (post-Defaults) cell configuration.
	Scenario Scenario `json:"scenario"`
	// Metrics are scalar summaries, in a driver-defined stable order.
	Metrics []Metric `json:"metrics"`
	// Series are per-bucket traces; CSV sinks skip them, NDJSON keeps them.
	Series []Series `json:"series,omitempty"`
	// Exec reports how the runner pool executed this cell's grid —
	// shared by every Result of the grid. Advisory only; json-skipped so
	// sink output stays byte-identical at every worker count.
	Exec *ExecStats `json:"-"`
}

// Metric returns the named scalar, or 0 when absent. Use Lookup to
// distinguish a missing metric from a zero one.
func (r Result) Metric(name string) float64 {
	v, _ := r.Lookup(name)
	return v
}

// Lookup returns the named scalar and whether it is present.
func (r Result) Lookup(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// SeriesValues returns the named series, or nil when absent.
func (r Result) SeriesValues(name string) []float64 {
	for _, s := range r.Series {
		if s.Name == name {
			return s.Values
		}
	}
	return nil
}

// Table is a rendered tabular view of experiment results: every driver
// derives one from its Results so the CLI and benchmarks print uniform,
// human-readable output. It is a presentation type only — serialise
// Results, not Tables.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
