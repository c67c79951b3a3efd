package sweep

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// goldenResults is a fixed result set covering both metric-only and
// series-carrying cells. Purely synthetic: golden files stay stable on
// every platform.
func goldenResults() []Result {
	grid := Grid{
		Base: Scenario{Label: "demo", Duration: 30 * time.Second, Seed: 7},
		Axes: []Axis{Defenses(DefenseCookies, DefensePuzzles), Ks(1, 2)},
	}
	cells := grid.Expand(nil)
	out := make([]Result, len(cells))
	for i, sc := range cells {
		out[i] = Result{
			Experiment: "golden",
			Scenario:   sc.Defaults(),
			Metrics: []Metric{
				{Name: "mbps_during", Value: float64(i) + 0.25},
				{Name: "attack_cps", Value: 100.5 * float64(i+1)},
			},
		}
		if i == 0 {
			out[i].Series = []Series{{Name: "mbps", Values: []float64{0, 1.5, 2.25}}}
		}
	}
	return out
}

// checkGolden compares got against testdata/name, rewriting the file when
// the GOLDEN_UPDATE environment variable is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output differs from golden file:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestCSVSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSV(&buf)
	for _, r := range goldenResults() {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.csv", buf.Bytes())
}

func TestNDJSONSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSON(&buf)
	for _, r := range goldenResults() {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.ndjson", buf.Bytes())
}

func TestTableSinkRenders(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTable(&buf)
	for _, r := range goldenResults() {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== golden ==") {
		t.Errorf("missing experiment title:\n%s", out)
	}
	if !strings.Contains(out, "mbps_during") || !strings.Contains(out, "demo/defense=puzzles/k=2") {
		t.Errorf("missing rows:\n%s", out)
	}
	// Flush clears the buffer; a second Flush emits nothing.
	buf.Reset()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("second Flush re-emitted: %q", buf.String())
	}
}

// Stream must deliver results to sinks in index order no matter the
// completion order — the serialization half of the repo's determinism
// guarantee.
func TestStreamReordersToGridOrder(t *testing.T) {
	results := goldenResults()
	var want bytes.Buffer
	wantSink := NewCSV(&want)
	for _, r := range results {
		if err := wantSink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var got bytes.Buffer
		stream := NewStream(NewCSV(&got))
		for _, i := range rng.Perm(len(results)) {
			if err := stream.Emit(i, results[i], Canon(results[i].Scenario)); err != nil {
				t.Fatal(err)
			}
		}
		if got.String() != want.String() {
			t.Fatalf("trial %d: out-of-order emission changed output:\n%s", trial, got.String())
		}
	}
}

type failingSink struct{ n int }

func (f *failingSink) Write(Result) error {
	f.n++
	if f.n > 1 {
		return os.ErrClosed
	}
	return nil
}
func (f *failingSink) Flush() error { return nil }

func TestStreamPropagatesSinkError(t *testing.T) {
	results := goldenResults()
	stream := NewStream(&failingSink{})
	if err := stream.Emit(0, results[0], Canonical{}); err != nil {
		t.Fatalf("first write failed: %v", err)
	}
	if err := stream.Emit(1, results[1], Canonical{}); err == nil {
		t.Fatal("sink error swallowed")
	}
	// The error is sticky.
	if err := stream.Emit(2, results[2], Canonical{}); err == nil {
		t.Fatal("stream forgot the sink error")
	}
}

// csvFields are the encoding/csv quoting cases: separators, quotes, line
// ends, leading ASCII and non-ASCII spaces, `\.` and the empty field.
var csvFields = []string{
	"", "plain", "a,b", `say "hi"`, `"`, "a\nb", "a\rb", "a\r\nb", " lead",
	"\tlead", "trail ", `\.`, `\.x`, `x\.`, " nbsp", "　ideo",
	"é", "a\"b,c\nd", "R&D", "-", "1e+21", "NaN",
}

// TestCSVFieldMatchesEncodingCSV pins appendCSVField to encoding/csv's
// Writer field by field.
func TestCSVFieldMatchesEncodingCSV(t *testing.T) {
	for _, f := range csvFields {
		var want bytes.Buffer
		w := csv.NewWriter(&want)
		if err := w.Write([]string{f, f}); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		got := appendCSVField(nil, f)
		got = append(appendCSVField(append(got, ','), f), '\n')
		if string(got) != want.String() {
			t.Errorf("field %q: got %q, want %q", f, got, want.String())
		}
	}
}

// csvReference is the CSV sink as a csv.Writer over one []string per
// row: the bytes CSVSink must keep writing.
func csvReference(t *testing.T, results []Result) string {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(strings.Split(strings.TrimSuffix(csvHeader, "\n"), ","))
	for _, r := range results {
		sc := r.Scenario
		for _, m := range r.Metrics {
			w.Write([]string{
				r.Experiment, sc.Label, string(sc.Defense), string(sc.Attack),
				strconv.Itoa(int(sc.Params.K)), strconv.Itoa(int(sc.Params.M)),
				strconv.Itoa(sc.NumClients), strconv.Itoa(sc.BotCount),
				formatFloat(sc.PerBotRate), strconv.FormatInt(sc.Seed, 10),
				m.Name, formatFloat(m.Value),
			})
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// oddResults carries every quoting and number-format edge case in the
// fields the sinks write: HTML and CSV specials in names and labels, nil
// versus empty metrics and series, and floats at json's format cutoffs.
func oddResults() []Result {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.99e-7, -1e-7,
		1e20, 1e21, -1e21, 1.5e300, 5e-324, math.MaxFloat64, 123456789.125, 2.5e-10}
	var out []Result
	for i, f := range csvFields {
		sc := Scenario{Label: f, Defense: Defense(f), Attack: "<a&b>", Seed: int64(i) - 3, PerBotRate: floats[i%len(floats)]}
		r := Result{Experiment: "odd " + f, Scenario: sc}
		switch i % 4 {
		case 0: // nil metrics, no series
		case 1:
			r.Metrics, r.Series = []Metric{}, []Series{}
		case 2:
			r.Series = []Series{{Name: "nil"}, {Name: "empty", Values: []float64{}}}
			r.Metrics = []Metric{{Name: f, Value: floats[i%len(floats)]}}
		case 3:
			r.Metrics = []Metric{{Name: "<b>&amp;", Value: -0.0}}
			for j, v := range floats {
				r.Metrics = append(r.Metrics, Metric{Name: strconv.Itoa(j), Value: v})
			}
			r.Series = []Series{{Name: "\x00\x1f\xff", Values: floats}}
		}
		out = append(out, r)
	}
	return out
}

func TestCSVSinkMatchesEncodingCSV(t *testing.T) {
	results := append(goldenResults(), oddResults()...)
	var buf bytes.Buffer
	sink := NewCSV(&buf)
	for _, r := range results {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if want := csvReference(t, results); buf.String() != want {
		t.Errorf("CSV differs from encoding/csv:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestNDJSONSinkMatchesEncoder pins the NDJSON record to json.Encoder's,
// on the edge cases, on values either side of appendJSONFloat's fast
// paths (integers below 2^53 but -0; six decimals and 15 significant
// digits), and on random float bit patterns and random decimals.
func TestNDJSONSinkMatchesEncoder(t *testing.T) {
	results := append(goldenResults(), oddResults()...)
	edges := []float64{0, math.Copysign(0, -1), 1, -1, 2, -7, 100, -4096, 1 << 52,
		1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, 1e15, -1e15, 1e20, 1e21, -1e21, 1e300,
		1e-6, -1e-6, 5e-6, 9.99e-7, 0.000123, 0.1, 0.1 + 0.2, 1.5, -2.25, 0.0000015, 123456789.123456,
		999999999.999999, -999999999.999999, 999999999.9999995, 1e9 + 0.5, 7.394032000000001}
	for _, v := range edges {
		results = append(results, Result{Experiment: "integral", Metrics: []Metric{{Name: "v", Value: v}},
			Series: []Series{{Name: "v", Values: []float64{v, -v, v / 2}}}})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		vals := make([]float64, 50)
		for j := range vals {
			v := math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			}
			switch j % 5 {
			case 0: // an integer of any magnitude up to 2^54
				v = math.Copysign(math.Trunc(math.Ldexp(rng.Float64(), rng.Intn(55))), v)
			case 1: // a decimal of up to 8 places and 16 digits, or a neighbour
				v = float64(rng.Int63n(1e16)-5e15) / math.Pow10(rng.Intn(9))
				v = math.Nextafter(v, v+float64(rng.Intn(3)-1))
			}
			vals[j] = v
		}
		results = append(results, Result{Experiment: "rand", Series: []Series{{Name: "v", Values: vals}}})
	}
	for _, r := range results {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := NewNDJSON(&got).Write(r); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("NDJSON differs from json.Encoder:\ngot:  %s\nwant: %s", got.String(), want.String())
		}
	}
}

// TestStreamParksEncodingError: a NaN metric at cell bad fails the NDJSON
// sink at bad's turn, in any emission order. The bytes before it are
// those of the sinks writing cells 0..bad-1, plus bad's CSV rows when the
// CSV sink comes first; every later Emit returns json's error.
func TestStreamParksEncodingError(t *testing.T) {
	results := goldenResults()
	const bad = 2
	results[bad].Metrics = []Metric{{Name: "x", Value: math.NaN()}}
	_, wantErr := json.Marshal(results[bad])
	if wantErr == nil {
		t.Fatal("json accepted NaN")
	}
	var wantND bytes.Buffer
	for _, r := range results[:bad] {
		json.NewEncoder(&wantND).Encode(r)
	}
	rng := rand.New(rand.NewSource(5))
	for _, csvFirst := range []bool{false, true} {
		wantCSV := csvReference(t, results[:bad])
		if csvFirst {
			wantCSV = csvReference(t, results[:bad+1])
		}
		for trial := 0; trial < 10; trial++ {
			var nd, cs bytes.Buffer
			sinks := []Sink{NewNDJSON(&nd), NewCSV(&cs)}
			if csvFirst {
				sinks[0], sinks[1] = sinks[1], sinks[0]
			}
			stream := NewStream(sinks...)
			released := false
			for _, i := range rng.Perm(len(results)) {
				err := stream.Emit(i, results[i], Canon(results[i].Scenario))
				if released && (err == nil || err.Error() != wantErr.Error()) {
					t.Fatalf("Emit(%d) after the failure: %v, want %v", i, err, wantErr)
				}
				if err != nil {
					if err.Error() != wantErr.Error() {
						t.Fatalf("Emit(%d): %v, want %v", i, err, wantErr)
					}
					released = true
				}
			}
			if !released {
				t.Fatal("the encoding error never surfaced")
			}
			if nd.String() != wantND.String() || cs.String() != wantCSV {
				t.Fatalf("csvFirst=%v trial %d: bytes before the failure differ:\nndjson:\n%s\ncsv:\n%s", csvFirst, trial, nd.String(), cs.String())
			}
		}
	}
}

// TestStreamConcurrentEmit emits from several goroutines at once (run it
// under -race): encoder sinks and a plain sink get the serial bytes.
func TestStreamConcurrentEmit(t *testing.T) {
	var results []Result
	for i := 0; i < 8; i++ {
		results = append(results, goldenResults()...)
		results = append(results, oddResults()...)
	}
	var wantND, wantCSV, wantTab bytes.Buffer
	serial := []Sink{NewNDJSON(&wantND), NewCSV(&wantCSV), NewTable(&wantTab)}
	for _, r := range results {
		for _, s := range serial {
			if err := s.Write(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial[2].Flush()
	for trial := 0; trial < 5; trial++ {
		var nd, cs, tab bytes.Buffer
		table := NewTable(&tab)
		stream := NewStream(NewNDJSON(&nd), NewCSV(&cs), table)
		var wg sync.WaitGroup
		const workers = 4
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := len(results) - 1 - w; i >= 0; i -= workers {
					// Odd cells pass no Canonical. An even cell's Canon
					// holds its Defaults(), which the oddResults' own
					// scenarios are not: those must still encode their own.
					var sc Canonical
					if i%2 == 0 {
						sc = Canon(results[i].Scenario)
					}
					if err := stream.Emit(i, results[i], sc); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		table.Flush()
		if nd.String() != wantND.String() || cs.String() != wantCSV.String() || tab.String() != wantTab.String() {
			t.Fatalf("trial %d: concurrent Emit changed the bytes", trial)
		}
	}
}
