package tcpopt

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// refOptions is the fuzz targets' reference decoder, written apart from
// Lookup so that the two check each other: it collects every option of
// an area up to EOL (NOPs skipped), in order, and fails with the error
// Lookup returns for the first malformed option.
func refOptions(b []byte) ([]Option, error) {
	var opts []Option
	for len(b) > 0 && b[0] != KindEOL {
		if b[0] == KindNOP {
			b = b[1:]
			continue
		}
		if len(b) < 2 {
			return nil, fmt.Errorf("tcpopt: option 0x%02x truncated at length byte: %w", b[0], ErrOptionsMalformed)
		}
		if n := int(b[1]); n < 2 || n > len(b) {
			return nil, fmt.Errorf("tcpopt: option 0x%02x has bad length %d: %w", b[0], n, ErrOptionsMalformed)
		}
		opts = append(opts, Option{Kind: b[0], Data: b[2:b[1]]})
		b = b[b[1]:]
	}
	return opts, nil
}

// refFind returns the first of opts with the given kind.
func refFind(opts []Option, kind uint8) (Option, bool) {
	for _, o := range opts {
		if o.Kind == kind {
			return o, true
		}
	}
	return Option{}, false
}

// FuzzChallengeRoundTrip fuzzes the challenge codec constructively: every
// valid (k, m, l) challenge must survive the full wire path — Encode →
// MarshalOptions → the reference decoder (refOptions) → ParseChallenge —
// bit-for-bit, with and without an embedded timestamp, and the one-step
// MarshalChallenge, AppendChallenge (after a prefix taken from the fuzzed
// preimage, so of every length mod 4) and Lookup must agree with the paths
// they shorten. This is the
// encode/decode contract the simulated kernels and the puzzlenet preamble
// both build on; FuzzParseChallenge covers the adversarial direction.
func FuzzChallengeRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(17), uint8(32), []byte("preimage-bytes--"), uint32(7), true)
	f.Add(uint8(1), uint8(8), uint8(32), []byte{1, 2, 3, 4}, uint32(0), false)
	f.Add(uint8(4), uint8(1), uint8(8), []byte{0xff}, uint32(1<<31), true)
	f.Add(uint8(3), uint8(64), uint8(64), []byte{}, uint32(0xffffffff), false)
	f.Fuzz(func(t *testing.T, k, m, l uint8, pre []byte, ts uint32, embedTS bool) {
		params := puzzle.Params{K: k, M: m, L: l}
		if params.Validate() != nil {
			return
		}
		preimage := make([]byte, params.SolutionBytes())
		copy(preimage, pre)
		ch := puzzle.Challenge{Params: params, Preimage: preimage, Timestamp: ts}
		opt, err := EncodeChallenge(ch, embedTS)
		if err != nil {
			t.Fatalf("EncodeChallenge(%+v): %v", params, err)
		}
		raw, err := MarshalOptions([]Option{opt})
		if err != nil {
			t.Fatalf("MarshalOptions: %v", err)
		}
		if direct, err := MarshalChallenge(ch, embedTS); err != nil || !bytes.Equal(direct, raw) {
			t.Fatalf("MarshalChallenge = %x, %v; want %x", direct, err, raw)
		}
		prefix := pre[:len(pre)%7]
		appended, err := AppendChallenge(bytes.Clone(prefix), ch, embedTS)
		if err != nil || !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], raw) {
			t.Fatalf("AppendChallenge(%x) = %x, %v; want the prefix then %x", prefix, appended, err, raw)
		}
		opts, err := refOptions(raw)
		if err != nil {
			t.Fatalf("refOptions: %v", err)
		}
		got, ok := refFind(opts, KindChallenge)
		if !ok {
			t.Fatal("challenge option lost in marshal round-trip")
		}
		if found, ok, err := Lookup(raw, KindChallenge); err != nil || !ok || !bytes.Equal(found.Data, got.Data) {
			t.Fatalf("Lookup = %+v, %v, %v; want %+v", found, ok, err, got)
		}
		dec, err := ParseChallenge(got)
		if err != nil {
			t.Fatalf("ParseChallenge: %v", err)
		}
		if dec.Challenge.Params != params {
			t.Fatalf("params %+v, want %+v", dec.Challenge.Params, params)
		}
		if !bytes.Equal(dec.Challenge.Preimage, preimage) {
			t.Fatalf("preimage %x, want %x", dec.Challenge.Preimage, preimage)
		}
		if dec.HasTimestamp != embedTS {
			t.Fatalf("HasTimestamp = %v, want %v", dec.HasTimestamp, embedTS)
		}
		if embedTS && dec.Challenge.Timestamp != ts {
			t.Fatalf("timestamp %d, want %d", dec.Challenge.Timestamp, ts)
		}
	})
}

// FuzzParseOptions exercises the options parser on arbitrary bytes: it must
// never panic, Lookup must answer exactly as the reference decoder
// (refOptions, then the first option of the kind; errors included), and
// anything the reference decodes must re-marshal and decode to the same
// structure.
func FuzzParseOptions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{KindNOP, KindNOP, KindEOL})
	f.Add([]byte{KindMSS, 4, 0x05, 0xb4})
	f.Add([]byte{KindChallenge, 3, 0xff})
	f.Add([]byte{KindSolution, 2})
	f.Add([]byte{KindNOP, KindSolution, 3, 1, KindSolution, 3, 2, KindMSS, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, err := refOptions(data)
		for _, kind := range append([]uint8{KindChallenge, KindSolution, KindMSS}, data...) {
			want, wantOK := refFind(opts, kind)
			got, ok, lookupErr := Lookup(data, kind)
			if (lookupErr != nil) != (err != nil) || ok != wantOK || got.Kind != want.Kind || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("Lookup(%x, 0x%02x) = %+v, %v, %v; reference = %+v, %v, %v",
					data, kind, got, ok, lookupErr, want, wantOK, err)
			}
			if err != nil && lookupErr.Error() != err.Error() {
				t.Fatalf("Lookup error %q, reference error %q", lookupErr, err)
			}
		}
		if err != nil {
			return
		}
		remarshalled, err := MarshalOptions(opts)
		if err != nil {
			// Parsed options can exceed marshal limits (e.g. >40 bytes of
			// input); that is allowed.
			return
		}
		again, err := refOptions(remarshalled)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(opts) {
			t.Fatalf("round trip changed option count: %d → %d", len(opts), len(again))
		}
		for i := range opts {
			if again[i].Kind != opts[i].Kind || string(again[i].Data) != string(opts[i].Data) {
				t.Fatalf("option %d changed: %+v → %+v", i, opts[i], again[i])
			}
		}
	})
}

// FuzzParseChallenge exercises the challenge block decoder.
func FuzzParseChallenge(f *testing.F) {
	valid, _ := EncodeChallenge(puzzle.Challenge{
		Params:    puzzle.Params{K: 2, M: 8, L: 32},
		Timestamp: 42,
		Preimage:  []byte{1, 2, 3, 4},
	}, true)
	f.Add(valid.Data)
	f.Add([]byte{})
	f.Add([]byte{2, 8, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := ParseChallenge(Option{Kind: KindChallenge, Data: data})
		if err != nil {
			return
		}
		// Whatever parsed must encode back losslessly.
		opt, err := EncodeChallenge(blk.Challenge, blk.HasTimestamp)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ParseChallenge(opt)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Challenge.Params != blk.Challenge.Params {
			t.Fatalf("params changed: %v → %v", blk.Challenge.Params, again.Challenge.Params)
		}
	})
}

// FuzzParseSolution exercises the solution block decoder against the
// default server parameters.
func FuzzParseSolution(f *testing.F) {
	params := puzzle.Params{K: 2, M: 17, L: 32}
	sol := puzzle.Solution{
		Params:    params,
		Timestamp: 7,
		Solutions: [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}},
	}
	valid, _ := EncodeSolution(SolutionBlock{MSS: 1460, WScale: 7, HasTimestamp: true, Solution: sol})
	f.Add(valid.Data)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := ParseSolution(Option{Kind: KindSolution, Data: data}, params)
		if err != nil {
			return
		}
		if len(blk.Solution.Solutions) != int(params.K) {
			t.Fatalf("parsed %d solutions, want %d", len(blk.Solution.Solutions), params.K)
		}
		for _, s := range blk.Solution.Solutions {
			if len(s) != params.SolutionBytes() {
				t.Fatalf("solution length %d, want %d", len(s), params.SolutionBytes())
			}
		}
	})
}
