package puzzle

// leadingBitsEqual reports whether the first n bits of a and b are equal.
// Both slices must hold at least ceil(n/8) bytes.
func leadingBitsEqual(a, b []byte, n int) bool {
	if n <= 0 {
		return true
	}
	full := n / 8
	for i := 0; i < full; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	rem := n % 8
	if rem == 0 {
		return true
	}
	mask := byte(0xff) << (8 - rem)
	return a[full]&mask == b[full]&mask
}
