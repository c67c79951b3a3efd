package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Pools for fillRandom, by kind: each holds the values on which a
// hand-written encoder and encoding/json could part.
var (
	poolStrings = []string{"", "a", "puzzles", "<&>", "a\x00b", "\x1f\t\n\r", "\u2028\u2029", "\xff", "a\xfe\xffb",
		"\"quote\" \\", "é", "\ufffd", "\u007f", "\U0001F600"}
	poolInts = []int64{0, 1, -1, 3, 17, 1 << 40, -1 << 40, math.MaxInt64, math.MinInt64,
		int64(-time.Second), int64(600 * time.Second)}
	poolFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 500, 1e-7, 1e21, -1e21, 123456.789,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
)

func pick[T any](rng *rand.Rand, pool []T) T { return pool[rng.Intn(len(pool))] }

// fillRandom sets every settable field of v, recursively, from the pools,
// each field independently zero a quarter of the time. A kind it has no
// pool for fails the test, so a new Scenario field of a new kind is
// noticed rather than left at zero.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value) {
	if rng.Intn(4) == 0 {
		v.SetZero()
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(pick(rng, poolStrings))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(pick(rng, poolInts))
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Float64:
		v.SetFloat(pick(rng, poolFloats))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(t, rng, v.Field(i))
		}
	default:
		t.Fatalf("fillRandom has no values for a %s field", v.Type())
	}
}

// TestEncodeScenarioMatchesJSON is the differential test of encodeScenario
// against its specification, json.Marshal: over random scenarios with
// every field set by reflection, the bytes and whether an error is
// returned agree, and an error reads as json's. A Scenario field the
// encoder does not write fails it.
func TestEncodeScenarioMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var errs, macro, shards int
	for i := 0; i < 20000; i++ {
		var sc Scenario
		fillRandom(t, rng, reflect.ValueOf(&sc).Elem())
		got, gotErr := encodeScenario(sc)
		want, wantErr := json.Marshal(sc)
		if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("scenario %#v:\nencodeScenario %s, %v\njson.Marshal   %s, %v", sc, got, gotErr, want, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("scenario %#v: error %q, json's %q", sc, gotErr, wantErr)
			}
			errs++
		}
		if sc.MacroSources != 0 {
			macro++
		}
		if sc.Shards != 0 {
			shards++
		}
	}
	if errs == 0 || macro == 0 || shards == 0 {
		t.Fatalf("errors %d, MacroSources set %d, Shards set %d: the pools test nothing", errs, macro, shards)
	}
}
