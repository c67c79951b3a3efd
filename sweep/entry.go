package sweep

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// A cache entry is one binary record holding a cell's metrics and series.
// Integers are unsigned varints and floats are their IEEE-754 bits, eight
// bytes little-endian, so a hit copies bits and parses no text:
//
//	magic     "TZCE" then format version 1
//	metrics   count+1, then per metric: name length, name bytes, value
//	series    count+1, then per series: name length, name bytes,
//	          value count+1, values
//	trailer   CRC-32C of every byte before it, four bytes little-endian
//
// A count of 0 stands for a nil slice, so an empty slice and a nil one
// survive the round trip distinctly: NDJSON prints the first as [] and the
// second as null, and a warm pass must print what the cold pass printed.
const entryMagic = "TZCE\x01"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Smallest encodings, which bound every count before it is allocated.
const (
	minMetricBytes = 1 + 8 // empty name, value
	minSeriesBytes = 1 + 1 // empty name, nil values
	floatBytes     = 8
)

// encodeEntry serialises one cell's metrics and series. NaN and ±Inf are
// rejected, naming the metric or series that carries them.
func encodeEntry(metrics []Metric, series []Series) ([]byte, error) {
	size := len(entryMagic) + 2*binary.MaxVarintLen64 + crc32.Size
	for _, m := range metrics {
		size += binary.MaxVarintLen64 + len(m.Name) + floatBytes
	}
	for _, s := range series {
		size += 2*binary.MaxVarintLen64 + len(s.Name) + floatBytes*len(s.Values)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, entryMagic...)
	buf = appendCount(buf, len(metrics), metrics == nil)
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %q is %v", m.Name, m.Value)
		}
		buf = appendName(buf, m.Name)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Value))
	}
	buf = appendCount(buf, len(series), series == nil)
	for _, s := range series {
		buf = appendName(buf, s.Name)
		buf = appendCount(buf, len(s.Values), s.Values == nil)
		for i, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("series %q value %d is %v", s.Name, i, v)
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

func appendCount(buf []byte, n int, isNil bool) []byte {
	if isNil {
		return binary.AppendUvarint(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(n)+1)
}

func appendName(buf []byte, name string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	return append(buf, name...)
}

// decodeEntry parses a record written by encodeEntry. It reports false for
// a wrong magic, a checksum mismatch, a count or length that runs past the
// end of the record, or bytes left over after the series.
func decodeEntry(data []byte) ([]Metric, []Series, bool) {
	if len(data) < len(entryMagic)+crc32.Size || string(data[:len(entryMagic)]) != entryMagic {
		return nil, nil, false
	}
	body := data[:len(data)-crc32.Size]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, nil, false
	}
	r := entryReader{rest: body[len(entryMagic):]}
	var metrics []Metric
	if n, isNil := r.count(minMetricBytes); !isNil {
		metrics = make([]Metric, n)
		for i := range metrics {
			metrics[i] = Metric{Name: r.name(), Value: r.float()}
		}
	}
	var series []Series
	if n, isNil := r.count(minSeriesBytes); !isNil {
		series = make([]Series, n)
		for i := range series {
			series[i].Name = r.name()
			if n, isNil := r.count(floatBytes); !isNil {
				values := make([]float64, n)
				for j := range values {
					values[j] = r.float()
				}
				series[i].Values = values
			}
		}
	}
	if r.bad || len(r.rest) != 0 {
		return nil, nil, false
	}
	return metrics, series, true
}

// entryReader consumes a record body. The first malformed field sets bad,
// after which every read returns zero values without consuming input, so
// decodeEntry checks bad once at the end.
type entryReader struct {
	rest []byte
	bad  bool
}

func (r *entryReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// count reads a stored count+1 and checks that n items of at least
// minBytes each fit in what is left, so a forged count cannot make the
// caller allocate more than the record's length justifies.
func (r *entryReader) count(minBytes int) (n int, isNil bool) {
	v := r.uvarint()
	if r.bad || v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(r.rest)/minBytes) {
		r.bad = true
		return 0, true
	}
	return int(v - 1), false
}

func (r *entryReader) name() string {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.rest)) {
		r.bad = true
		return ""
	}
	name := string(r.rest[:n])
	r.rest = r.rest[n:]
	return name
}

func (r *entryReader) float() float64 {
	if r.bad || len(r.rest) < floatBytes {
		r.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.rest))
	r.rest = r.rest[floatBytes:]
	return v
}
