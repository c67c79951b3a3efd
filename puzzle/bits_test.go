package puzzle

import (
	"testing"
	"testing/quick"
)

func TestLeadingBitsEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b []byte
		n    int
		want bool
	}{
		{"zero bits always equal", []byte{0x00}, []byte{0xff}, 0, true},
		{"full byte equal", []byte{0xab}, []byte{0xab}, 8, true},
		{"full byte unequal", []byte{0xab}, []byte{0xaa}, 8, false},
		{"partial equal", []byte{0b1010_1111}, []byte{0b1010_0000}, 4, true},
		{"partial unequal", []byte{0b1010_1111}, []byte{0b1011_0000}, 4, false},
		{"crosses byte boundary", []byte{0xff, 0b1100_0000}, []byte{0xff, 0b1101_1111}, 10, true},
		{"boundary mismatch", []byte{0xff, 0b1100_0000}, []byte{0xff, 0b1101_1111}, 12, false},
		{"multi byte equal", []byte{1, 2, 3}, []byte{1, 2, 3}, 24, true},
		{"first byte differs", []byte{1, 2, 3}, []byte{9, 2, 3}, 24, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := leadingBitsEqual(tt.a, tt.b, tt.n); got != tt.want {
				t.Errorf("leadingBitsEqual(%x, %x, %d) = %v, want %v", tt.a, tt.b, tt.n, got, tt.want)
			}
		})
	}
}

func TestCountLeadingMatchingBits(t *testing.T) {
	tests := []struct {
		a, b []byte
		want int
	}{
		{[]byte{0xff}, []byte{0xff}, 8},
		{[]byte{0x00}, []byte{0x80}, 0},
		{[]byte{0x00}, []byte{0x40}, 1},
		{[]byte{0xff, 0xf0}, []byte{0xff, 0xf8}, 12},
		{[]byte{}, []byte{0xff}, 0},
	}
	for _, tt := range tests {
		if got := countLeadingMatchingBits(tt.a, tt.b); got != tt.want {
			t.Errorf("countLeadingMatchingBits(%x, %x) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

// Property: leadingBitsEqual(a, b, n) holds iff countLeadingMatchingBits is
// at least n (for n within the shorter slice).
func TestLeadingBitsAgreement(t *testing.T) {
	f := func(a, b [4]byte, n uint8) bool {
		bits := int(n) % 33
		eq := leadingBitsEqual(a[:], b[:], bits)
		return eq == (countLeadingMatchingBits(a[:], b[:]) >= bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: equality of the first n bits is reflexive and symmetric.
func TestLeadingBitsSymmetry(t *testing.T) {
	f := func(a, b [8]byte, n uint8) bool {
		bits := int(n) % 65
		if !leadingBitsEqual(a[:], a[:], bits) {
			return false
		}
		return leadingBitsEqual(a[:], b[:], bits) == leadingBitsEqual(b[:], a[:], bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// countLeadingMatchingBits returns the number of leading bits on which a and
// b agree, up to 8·min(len(a), len(b)): the reference leadingBitsEqual is
// checked against.
func countLeadingMatchingBits(a, b []byte) int {
	n := min(len(a), len(b))
	bits := 0
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			bits += 8
			continue
		}
		x := a[i] ^ b[i]
		for mask := byte(0x80); mask != 0; mask >>= 1 {
			if x&mask != 0 {
				return bits
			}
			bits++
		}
	}
	return bits
}
