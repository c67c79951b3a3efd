package sweep

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime/metrics"
	"testing"
)

// TestCacheEntryShapes round-trips the values and shapes a JSON entry
// could lose or a sink would print differently: negative zero, invalid
// UTF-8 names, and nil beside empty slices at every level.
func TestCacheEntryShapes(t *testing.T) {
	cases := []struct {
		metrics []Metric
		series  []Series
	}{
		{},
		{metrics: []Metric{}, series: []Series{}},
		{metrics: []Metric{{Name: "neg-zero", Value: math.Copysign(0, -1)}, {Name: "\xff\xfe", Value: math.SmallestNonzeroFloat64}}},
		{series: []Series{{Name: "nil"}, {Name: "empty", Values: []float64{}}, {Values: []float64{-math.MaxFloat64, 1e-300}}}},
	}
	for _, c := range cases {
		checkEntryRoundTrip(t, c.metrics, c.series)
	}
}

// FuzzCacheEntry checks the cache-entry codec both ways. Decoding
// arbitrary bytes — raw, and re-framed with a valid magic and checksum so
// the parser behind them is reached — must not panic or allocate more
// than the input's length justifies. An entry built from the bytes must
// round-trip bit for bit and shape for shape, and flipping any one byte of
// its encoding must make it unreadable (decodeEntry is all Cache.Get checks
// of a file's content, so such an entry misses).
func FuzzCacheEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		framed := append([]byte(entryMagic), data...)
		framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(framed, castagnoli))
		checkDecodeAllocs(t, data)
		checkDecodeAllocs(t, framed)

		metrics, series := fuzzEntry(data)
		checkEntryRoundTrip(t, metrics, series)
	})
}

// checkDecodeAllocs fails when decoding data allocates more than a fixed
// multiple of its length. The multiple is the worst honest case: a
// two-byte empty series decodes to a 40-byte Series header.
func checkDecodeAllocs(t *testing.T, data []byte) {
	t.Helper()
	const perByte, slack = 32, 64 << 10
	limit := perByte*uint64(len(data)) + slack
	// The counter is process-wide and advances a span at a time, so one
	// reading can include another goroutine's allocations: only a bound
	// exceeded on three readings in a row fails.
	var got uint64
	for try := 0; try < 3; try++ {
		if got = decodeAllocBytes(data); got <= limit {
			return
		}
	}
	t.Fatalf("decoding %d bytes allocated %d bytes", len(data), got)
}

// decodeAllocBytes reads the heap's allocation counter around one decode.
// Unlike runtime.ReadMemStats it does not stop the world.
func decodeAllocBytes(data []byte) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	decodeEntry(data)
	metrics.Read(sample)
	return sample[0].Value.Uint64() - before
}

// checkEntryRoundTrip encodes an entry and decodes it back. Entries with a
// non-finite value must be refused instead.
func checkEntryRoundTrip(t *testing.T, metrics []Metric, series []Series) {
	t.Helper()
	data, err := encodeEntry(metrics, series)
	if finite := allFinite(metrics, series); (err == nil) != finite {
		t.Fatalf("encode error = %v with all values finite = %v", err, finite)
	}
	if err != nil {
		return
	}
	gotMetrics, gotSeries, ok := decodeEntry(data)
	if !ok {
		t.Fatal("a freshly encoded entry does not decode")
	}
	if (gotMetrics == nil) != (metrics == nil) || len(gotMetrics) != len(metrics) {
		t.Fatalf("metrics shape: got %#v, want %#v", gotMetrics, metrics)
	}
	for i, m := range metrics {
		if gotMetrics[i].Name != m.Name || math.Float64bits(gotMetrics[i].Value) != math.Float64bits(m.Value) {
			t.Fatalf("metric %d: got %#v, want %#v", i, gotMetrics[i], m)
		}
	}
	if (gotSeries == nil) != (series == nil) || len(gotSeries) != len(series) {
		t.Fatalf("series shape: got %#v, want %#v", gotSeries, series)
	}
	for i, s := range series {
		got := gotSeries[i]
		if got.Name != s.Name || (got.Values == nil) != (s.Values == nil) || len(got.Values) != len(s.Values) {
			t.Fatalf("series %d: got %#v, want %#v", i, got, s)
		}
		for j, v := range s.Values {
			if math.Float64bits(got.Values[j]) != math.Float64bits(v) {
				t.Fatalf("series %d value %d: got %v, want %v", i, j, got.Values[j], v)
			}
		}
	}
	for i := range data {
		data[i] ^= 0xff
		if _, _, ok := decodeEntry(data); ok {
			t.Fatalf("entry with byte %d of %d flipped still decodes", i, len(data))
		}
		data[i] ^= 0xff
	}
}

func allFinite(metrics []Metric, series []Series) bool {
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	for _, s := range series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// fuzzEntry builds an entry from fuzz bytes. The first byte picks whether
// the metric and series slices start empty rather than nil. Each later op
// byte adds one item: its high nibble is the name length, bit 0 picks a
// metric or a series, and for a series bits 1–2 are the value count and
// bit 3 makes a zero count an empty slice rather than nil. Names and
// float bits are taken from the bytes that follow, zero-padded at the end.
func fuzzEntry(data []byte) ([]Metric, []Series) {
	take := func(n int) []byte {
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	float := func() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(take(8))) }
	if len(data) == 0 {
		return nil, nil
	}
	var (
		metrics []Metric
		series  []Series
	)
	shape := take(1)[0]
	if shape&1 != 0 {
		metrics = []Metric{}
	}
	if shape&2 != 0 {
		series = []Series{}
	}
	for len(data) > 0 {
		op := take(1)[0]
		name := string(take(int(op >> 4)))
		if op&1 == 0 {
			metrics = append(metrics, Metric{Name: name, Value: float()})
			continue
		}
		s := Series{Name: name}
		if n := int(op>>1) & 3; n > 0 || op&8 != 0 {
			s.Values = make([]float64, n)
			for i := range s.Values {
				s.Values[i] = float()
			}
		}
		series = append(series, s)
	}
	return metrics, series
}
