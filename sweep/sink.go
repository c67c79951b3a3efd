package sweep

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Sink receives completed cell Results as they stream off the runner.
// Implementations need not be safe for concurrent use: Stream serialises
// writes and guarantees grid order, so sink output is byte-identical at
// every worker count.
type Sink interface {
	Write(Result) error
	// Flush forces buffered output to the underlying writer. Owners of
	// the sink call it once after the last Write.
	Flush() error
}

// encoder is a Sink whose records Stream builds off its lock: encode is
// a pure function of its arguments, safe to call from any goroutine, and
// writeEncoded writes finished records in the order it is handed them.
// Write is encode then writeEncoded, so each format has one encoder.
type encoder interface {
	encode(Result, Canonical) ([]byte, error)
	writeEncoded([]byte) error
}

// csvHeader is the long-format column set: one row per scalar metric,
// with the swept scenario coordinates alongside so output loads directly
// into plotting tools. Series are omitted — use NDJSON for full traces.
const csvHeader = "experiment,label,defense,attack,k,m," +
	"clients,bot_count,per_bot_rate,seed,metric,value\n"

// CSVSink streams Results as long-format CSV rows, quoted by
// encoding/csv's rules (see appendCSVField).
type CSVSink struct {
	w      io.Writer
	header bool
	err    error
}

// NewCSV returns a sink writing long-format CSV to w. The header row is
// written before the first record.
func NewCSV(w io.Writer) *CSVSink {
	return &CSVSink{w: w}
}

// Write emits one row per scalar metric of the result in one write to the
// underlying writer, so rows are visible as cells complete.
func (s *CSVSink) Write(r Result) error {
	b, err := s.encode(r, Canonical{})
	if err != nil {
		return err
	}
	return s.writeEncoded(b)
}

// encode renders the result's rows. The ten scenario fields are the same
// on every row, so they are quoted once.
func (s *CSVSink) encode(r Result, _ Canonical) ([]byte, error) {
	sc := r.Scenario
	var prefix []byte
	for _, f := range [...]string{r.Experiment, sc.Label, string(sc.Defense), string(sc.Attack)} {
		prefix = append(appendCSVField(prefix, f), ',')
	}
	for _, n := range [...]int64{int64(sc.Params.K), int64(sc.Params.M), int64(sc.NumClients), int64(sc.BotCount)} {
		prefix = append(strconv.AppendInt(prefix, n, 10), ',')
	}
	prefix = append(appendFloat(prefix, sc.PerBotRate), ',')
	prefix = append(strconv.AppendInt(prefix, sc.Seed, 10), ',')
	out := make([]byte, 0, len(r.Metrics)*(len(prefix)+32))
	for _, m := range r.Metrics {
		out = append(out, prefix...)
		out = append(appendCSVField(out, m.Name), ',')
		out = append(appendFloat(out, m.Value), '\n')
	}
	return out, nil
}

// writeEncoded writes the header before the first record. A write error
// is sticky: later writes and Flush return it.
func (s *CSVSink) writeEncoded(b []byte) error {
	if s.err != nil {
		return s.err
	}
	if !s.header {
		b = append([]byte(csvHeader), b...)
		s.header = true
	}
	if len(b) > 0 {
		_, s.err = s.w.Write(b)
	}
	return s.err
}

// Flush returns the first write error, if any: every Write reaches the
// underlying writer directly.
func (s *CSVSink) Flush() error { return s.err }

// appendCSVField appends field as encoding/csv's Writer (comma ',', LF
// line ends) writes it: quoted when it holds a comma, quote, CR or LF,
// starts with a Unicode space, or is exactly `\.`; inside quotes only '"'
// is escaped, by doubling.
func appendCSVField(b []byte, field string) []byte {
	if !csvNeedsQuotes(field) {
		return append(b, field...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			break
		}
		b = append(append(b, field[:i+1]...), '"')
		field = field[i+1:]
	}
	return append(append(b, field...), '"')
}

func csvNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` || strings.ContainsAny(field, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// NDJSONSink streams Results as newline-delimited JSON, one complete
// object — canonical scenario, metrics, and series — per cell.
type NDJSONSink struct {
	w io.Writer
}

// NewNDJSON returns a sink writing one JSON object per Result to w.
func NewNDJSON(w io.Writer) *NDJSONSink {
	return &NDJSONSink{w: w}
}

// Write encodes the result followed by a newline, in one write to the
// underlying writer; a result that does not encode writes nothing.
func (s *NDJSONSink) Write(r Result) error {
	b, err := s.encode(r, Canonical{})
	if err != nil {
		return err
	}
	return s.writeEncoded(b)
}

// encode renders the result exactly as json.Encoder does (HTML-escaped,
// one trailing newline, the first unsupported value an error). The
// scenario is c's encoding if c holds exactly r.Scenario, else r's own;
// the metric and series arrays, which hold most of a record's numbers, are
// appended directly.
func (s *NDJSONSink) encode(r Result, c Canonical) ([]byte, error) {
	sc, err := c.json, error(nil)
	if sc == nil || c.sc != r.Scenario {
		if sc, err = encodeScenario(r.Scenario); err != nil {
			return nil, err
		}
	}
	n := len(sc) + 64 + 40*len(r.Metrics)
	for _, se := range r.Series {
		n += 32 + 12*len(se.Values)
	}
	b := append(make([]byte, 0, n), `{"experiment":`...)
	b = appendJSONString(b, r.Experiment)
	b = append(append(b, `,"scenario":`...), sc...)
	b = append(b, `,"metrics":`...)
	if r.Metrics == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, m := range r.Metrics {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(append(b, `{"name":`...), m.Name)
			if b, err = appendJSONFloat(append(b, `,"value":`...), m.Value); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(r.Series) > 0 {
		b = append(b, `,"series":[`...)
		for i, se := range r.Series {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(append(b, `{"name":`...), se.Name)
			b = append(b, `,"values":`...)
			if se.Values == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j, v := range se.Values {
					if j > 0 {
						b = append(b, ',')
					}
					if b, err = appendJSONFloat(b, v); err != nil {
						return nil, err
					}
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

func (s *NDJSONSink) writeEncoded(b []byte) error {
	_, err := s.w.Write(b)
	return err
}

// Flush is a no-op: every Write reaches the underlying writer directly.
func (s *NDJSONSink) Flush() error { return nil }

// appendJSONString appends s as encoding/json quotes it with HTML
// escaping. Printable ASCII other than '"', '\\', '<', '>' and '&' is
// copied verbatim; any other string goes through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendJSONFloat appends v as encoding/json writes a float64: the
// shortest form, in exponent form below 1e-6 or from 1e21 in magnitude
// with the exponent unpadded. NaN and ±Inf are json's
// UnsupportedValueError. Two fast paths skip strconv's search for the
// shortest digits: AppendInt writes integers below 2^53 but -0, and a
// value of at most six decimals and 15 significant digits, the only such
// decimal that rounds to it, is round(v·10⁶) with the point put back.
func appendJSONFloat(b []byte, v float64) ([]byte, error) {
	if math.Trunc(v) == v {
		if math.Abs(v) < 1<<53 && (v != 0 || !math.Signbit(v)) {
			return strconv.AppendInt(b, int64(v), 10), nil
		}
	} else if n := math.Round(v * 1e6); n/1e6 == v && math.Abs(n) < 1e15 {
		i := int64(n)
		if i < 0 {
			b, i = append(b, '-'), -i
		}
		b = append(strconv.AppendInt(b, i/1e6, 10), '.')
		for d, frac := int64(1e5), i%1e6; frac > 0; d /= 10 {
			b, frac = append(b, byte('0'+frac/d)), frac%d
		}
		return b, nil
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: formatFloat(v)}
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-07 → e-7
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// TableSink buffers Results and renders one aligned long-format table per
// experiment on Flush — the pretty-printer as a Sink. The figure drivers
// keep their richer bespoke tables; this view covers ad-hoc sweeps.
type TableSink struct {
	w      io.Writer
	order  []string
	groups map[string][][]string
}

// NewTable returns a sink rendering aligned tables to w on Flush.
func NewTable(w io.Writer) *TableSink {
	return &TableSink{w: w, groups: map[string][][]string{}}
}

// Write buffers the result's scalar metrics.
func (s *TableSink) Write(r Result) error {
	if _, ok := s.groups[r.Experiment]; !ok {
		s.order = append(s.order, r.Experiment)
	}
	for _, m := range r.Metrics {
		s.groups[r.Experiment] = append(s.groups[r.Experiment],
			[]string{r.Scenario.Label, m.Name, formatFloat(m.Value)})
	}
	return nil
}

// Flush renders the buffered tables and clears the buffer.
func (s *TableSink) Flush() error {
	for _, exp := range s.order {
		t := Table{
			Title:  exp,
			Header: []string{"label", "metric", "value"},
			Rows:   s.groups[exp],
		}
		if _, err := io.WriteString(s.w, t.String()+"\n"); err != nil {
			return err
		}
	}
	s.order = nil
	s.groups = map[string][][]string{}
	return nil
}

// Stream fans concurrently-completing Results into a set of sinks in grid
// order: Emit accepts results in any order and releases them to the sinks
// only once every earlier-indexed cell has been released. This is what
// lets sink output stream as runs land while staying byte-identical at
// every runner worker count.
//
// The CSV and NDJSON sinks' records are encoded by the goroutine that
// calls Emit, before it takes the lock; under the lock the stream only
// writes finished bytes. Any other Sink gets Write under the lock.
type Stream struct {
	mu      sync.Mutex
	sinks   []Sink
	next    int
	pending map[int]cell
	err     error
}

// cell is one emitted result waiting for its turn: a record per encoder
// sink (in sink order) and the Result itself only when a plain sink
// needs it.
type cell struct {
	r    Result
	recs []record
}

// record is an encoder sink's bytes for one cell, or the error encoding
// them gave, which surfaces when the cell's turn comes.
type record struct {
	b   []byte
	err error
}

// NewStream returns a Stream over the given sinks. A Stream with no sinks
// discards everything at near-zero cost.
func NewStream(sinks ...Sink) *Stream {
	return &Stream{sinks: sinks, pending: map[int]cell{}}
}

// Emit hands cell index's result and its Canonical (or a zero one) to the
// stream. Safe for concurrent use. The first sink error is returned (and
// re-returned by later Emits), so a failing sink aborts the grid instead
// of silently truncating output.
func (s *Stream) Emit(index int, r Result, sc Canonical) error {
	if len(s.sinks) == 0 {
		return nil
	}
	var c cell
	for _, sink := range s.sinks {
		if enc, ok := sink.(encoder); ok {
			b, err := enc.encode(r, sc)
			c.recs = append(c.recs, record{b, err})
		} else {
			c.r = r
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.pending[index] = c
	for {
		ready, ok := s.pending[s.next]
		if !ok {
			return nil
		}
		delete(s.pending, s.next)
		s.next++
		if err := s.write(ready); err != nil {
			s.err = err
			return err
		}
	}
}

// write hands one cell to every sink in order.
func (s *Stream) write(c cell) error {
	recs := c.recs
	for _, sink := range s.sinks {
		enc, ok := sink.(encoder)
		if !ok {
			if err := sink.Write(c.r); err != nil {
				return err
			}
			continue
		}
		rec := recs[0]
		recs = recs[1:]
		if rec.err != nil {
			return rec.err
		}
		if err := enc.writeEncoded(rec.b); err != nil {
			return err
		}
	}
	return nil
}
