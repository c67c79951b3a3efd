package tcpopt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// TCP option kinds handled by this package.
const (
	KindEOL    = 0x00
	KindNOP    = 0x01
	KindMSS    = 0x02
	KindWScale = 0x03
	// KindChallenge is the unallocated opcode the paper assigns to the
	// puzzle challenge option.
	KindChallenge = 0xfc
	// KindSolution is the unallocated opcode the paper assigns to the
	// puzzle solution option.
	KindSolution = 0xfd
)

// MaxOptionsLen is the maximum length of a TCP options area: the data
// offset field allows a 60-byte header, 40 bytes beyond the fixed 20.
const MaxOptionsLen = 40

var (
	// ErrOptionsMalformed reports an undecodable options area.
	ErrOptionsMalformed = errors.New("tcpopt: malformed options")
	// ErrOptionsTooLong reports an options area exceeding MaxOptionsLen.
	ErrOptionsTooLong = errors.New("tcpopt: options exceed 40 bytes")
)

// Option is a single decoded TCP option. NOP and EOL are consumed during
// parsing and never appear as one.
type Option struct {
	Kind uint8
	Data []byte
}

// Lookup returns the first option of the given kind in a raw options
// area. It tolerates NOP padding and stops at EOL, per RFC 793, and it
// walks the area to its end, so an area malformed anywhere before EOL is
// an error even after the option is found.
func Lookup(b []byte, want uint8) (found Option, ok bool, err error) {
	i := 0
	for i < len(b) {
		kind := b[i]
		switch kind {
		case KindEOL:
			return found, ok, nil
		case KindNOP:
			i++
			continue
		}
		if i+1 >= len(b) {
			return Option{}, false, fmt.Errorf("tcpopt: option 0x%02x truncated at length byte: %w",
				kind, ErrOptionsMalformed)
		}
		length := int(b[i+1])
		if length < 2 || i+length > len(b) {
			return Option{}, false, fmt.Errorf("tcpopt: option 0x%02x has bad length %d: %w",
				kind, length, ErrOptionsMalformed)
		}
		if !ok && kind == want {
			found, ok = Option{Kind: kind, Data: b[i+2 : i+length]}, true
		}
		i += length
	}
	return found, ok, nil
}

// MarshalOptions encodes options back-to-back and pads the area with NOPs to
// a 32-bit boundary. It fails if the result would not fit the TCP header.
func MarshalOptions(opts []Option) ([]byte, error) {
	n := 0
	for _, o := range opts {
		n += 2 + len(o.Data)
	}
	var out []byte
	if n > 0 {
		out = make([]byte, 0, min(align4(n), MaxOptionsLen))
	}
	for _, o := range opts {
		if len(o.Data) > 253 {
			return nil, fmt.Errorf("tcpopt: option 0x%02x data %d bytes: %w",
				o.Kind, len(o.Data), ErrOptionsMalformed)
		}
		out = append(out, o.Kind, uint8(2+len(o.Data)))
		out = append(out, o.Data...)
	}
	for len(out)%4 != 0 {
		out = append(out, KindNOP)
	}
	if len(out) > MaxOptionsLen {
		return nil, fmt.Errorf("tcpopt: %d bytes: %w", len(out), ErrOptionsTooLong)
	}
	return out, nil
}

// MSSOption builds a standard Maximum Segment Size option.
func MSSOption(mss uint16) Option {
	return Option{Kind: KindMSS, Data: binary.BigEndian.AppendUint16(nil, mss)}
}

// ParseMSS extracts the MSS value from an MSS option.
func ParseMSS(o Option) (uint16, error) {
	if o.Kind != KindMSS || len(o.Data) != 2 {
		return 0, fmt.Errorf("tcpopt: bad MSS option: %w", ErrOptionsMalformed)
	}
	return binary.BigEndian.Uint16(o.Data), nil
}

// WScaleOption builds a standard window scale option.
func WScaleOption(shift uint8) Option {
	return Option{Kind: KindWScale, Data: []byte{shift}}
}

// ParseWScale extracts the shift count from a window scale option.
func ParseWScale(o Option) (uint8, error) {
	if o.Kind != KindWScale || len(o.Data) != 1 {
		return 0, fmt.Errorf("tcpopt: bad WScale option: %w", ErrOptionsMalformed)
	}
	return o.Data[0], nil
}
