package tcpopt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMarshalLookupRoundTrip(t *testing.T) {
	opts := []Option{
		MSSOption(1460),
		WScaleOption(7),
		{Kind: 0x08, Data: []byte{0, 0, 0x30, 0x39, 0, 0, 0x02, 0xa6}}, // timestamps
	}
	b, err := MarshalOptions(opts)
	if err != nil {
		t.Fatalf("MarshalOptions: %v", err)
	}
	if len(b)%4 != 0 {
		t.Errorf("options area %d bytes, not 32-bit aligned", len(b))
	}
	for _, want := range opts {
		got, ok, err := Lookup(b, want.Kind)
		if err != nil || !ok || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("Lookup(0x%02x) = %+v, %v, %v; want %+v", want.Kind, got, ok, err, want)
		}
	}
	if _, ok, err := Lookup(b, KindChallenge); ok || err != nil {
		t.Errorf("Lookup found a challenge in plain options (err %v)", err)
	}
}

func TestLookupHandlesNOPAndEOL(t *testing.T) {
	b := []byte{KindNOP, KindNOP, KindMSS, 4, 0x05, 0xb4, KindEOL, KindWScale, 3, 7}
	o, ok, err := Lookup(b, KindMSS)
	if err != nil || !ok {
		t.Fatalf("Lookup(MSS) = %+v, %v, %v", o, ok, err)
	}
	mss, err := ParseMSS(o)
	if err != nil || mss != 1460 {
		t.Errorf("ParseMSS = %d, %v; want 1460", mss, err)
	}
	if _, ok, err := Lookup(b, KindWScale); ok || err != nil {
		t.Errorf("Lookup read past EOL: %v, %v", ok, err)
	}
}

// Lookup returns the first option of a kind, and an empty area or one
// without the kind is a clean miss.
func TestLookupReturnsFirstMatch(t *testing.T) {
	b, err := MarshalOptions([]Option{MSSOption(100), WScaleOption(2), WScaleOption(9)})
	if err != nil {
		t.Fatalf("MarshalOptions: %v", err)
	}
	o, ok, err := Lookup(b, KindWScale)
	if err != nil || !ok {
		t.Fatalf("Lookup(WScale) = %+v, %v, %v", o, ok, err)
	}
	if ws, err := ParseWScale(o); err != nil || ws != 2 {
		t.Errorf("first WScale = %d, %v; want 2", ws, err)
	}
	for _, area := range [][]byte{nil, {}, {KindNOP, KindEOL}, b} {
		if _, ok, err := Lookup(area, KindChallenge); ok || err != nil {
			t.Errorf("Lookup(%x, challenge) = %v, %v; want a clean miss", area, ok, err)
		}
	}
}

func TestLookupMalformed(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
	}{
		{"truncated length", []byte{KindMSS}},
		{"length too small", []byte{KindMSS, 1}},
		{"length overruns", []byte{KindMSS, 10, 0, 0}},
		{"malformed after the match", []byte{KindMSS, 4, 0x05, 0xb4, KindWScale}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, ok, err := Lookup(tt.b, KindMSS); ok || !errors.Is(err, ErrOptionsMalformed) {
				t.Errorf("Lookup(%x) = %v, %v; want ErrOptionsMalformed", tt.b, ok, err)
			}
		})
	}
}

func TestMarshalOptionsTooLong(t *testing.T) {
	big := Option{Kind: 0x99, Data: make([]byte, 39)}
	if _, err := MarshalOptions([]Option{big}); !errors.Is(err, ErrOptionsTooLong) {
		t.Errorf("MarshalOptions error = %v, want ErrOptionsTooLong", err)
	}
}

func TestStandardOptionAccessors(t *testing.T) {
	if _, err := ParseMSS(WScaleOption(3)); err == nil {
		t.Error("ParseMSS accepted a WScale option")
	}
	ws, err := ParseWScale(WScaleOption(9))
	if err != nil || ws != 9 {
		t.Errorf("ParseWScale = %d, %v", ws, err)
	}
	if _, err := ParseWScale(MSSOption(1)); err == nil {
		t.Error("ParseWScale accepted an MSS option")
	}
}

// Property: marshal→lookup round-trips arbitrary small option payloads and
// the marshalled area is always 32-bit aligned.
func TestMarshalLookupProperty(t *testing.T) {
	f := func(kind uint8, data []byte) bool {
		if kind == KindEOL || kind == KindNOP {
			kind = KindMSS
		}
		if len(data) > 20 {
			data = data[:20]
		}
		b, err := MarshalOptions([]Option{{Kind: kind, Data: data}})
		if err != nil {
			return false
		}
		if len(b)%4 != 0 {
			return false
		}
		got, ok, err := Lookup(b, kind)
		return err == nil && ok && got.Kind == kind && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
