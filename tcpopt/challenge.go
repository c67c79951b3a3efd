package tcpopt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

var (
	// ErrChallengeMalformed reports an undecodable challenge option.
	ErrChallengeMalformed = errors.New("tcpopt: malformed challenge option")
	// ErrSolutionMalformed reports an undecodable solution option.
	ErrSolutionMalformed = errors.New("tcpopt: malformed solution option")
	// ErrTooLarge reports a block that cannot fit the TCP options area.
	ErrTooLarge = errors.New("tcpopt: block exceeds TCP option space")
)

// ChallengeBlock is the decoded payload of a 0xfc challenge option.
type ChallengeBlock struct {
	// Challenge carries (k, m, l), the preimage, and — when the block
	// embeds one — the issue timestamp.
	Challenge puzzle.Challenge
	// HasTimestamp reports whether the timestamp was embedded in the block
	// (true when the standard TCP timestamps option is not in use).
	HasTimestamp bool
}

// SolutionBlock is the decoded payload of a 0xfd solution option. It
// re-carries the MSS and window-scale values from the client's original SYN
// because the stateless server discarded them (paper §5).
type SolutionBlock struct {
	MSS          uint16
	WScale       uint8
	HasTimestamp bool
	Solution     puzzle.Solution
}

// EncodeChallenge encodes a challenge into a 0xfc option. When embedTS is
// true the issue timestamp is carried inside the block; otherwise the caller
// is expected to transport it in the standard timestamps option.
func EncodeChallenge(ch puzzle.Challenge, embedTS bool) (Option, error) {
	raw, err := MarshalChallenge(ch, embedTS)
	if err != nil {
		return Option{}, err
	}
	return Option{Kind: KindChallenge, Data: raw[2:raw[1]]}, nil
}

// MarshalChallenge encodes a challenge as a complete options area holding
// only the 0xfc option — EncodeChallenge then MarshalOptions, in one
// allocation. It is AppendChallenge to nil.
func MarshalChallenge(ch puzzle.Challenge, embedTS bool) ([]byte, error) {
	return AppendChallenge(nil, ch, embedTS)
}

// AppendChallenge appends to dst what MarshalChallenge returns — the 0xfc
// option NOP-padded to a 32-bit boundary from where it starts — and
// allocates only when dst lacks the capacity (ChallengeWireSize). On
// error dst is returned unchanged.
func AppendChallenge(dst []byte, ch puzzle.Challenge, embedTS bool) ([]byte, error) {
	size, err := SizeChallenge(ch.Params, embedTS)
	if err != nil {
		return dst, err
	}
	if len(ch.Preimage) != ch.Params.SolutionBytes() {
		return dst, fmt.Errorf("tcpopt: preimage %d bytes, want %d: %w",
			len(ch.Preimage), ch.Params.SolutionBytes(), ErrChallengeMalformed)
	}
	n := 2 + 3 + len(ch.Preimage)
	if embedTS {
		n += 4
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, KindChallenge, uint8(n), ch.Params.K, ch.Params.M, ch.Params.L)
	dst = append(dst, ch.Preimage...)
	if embedTS {
		dst = binary.BigEndian.AppendUint32(dst, ch.Timestamp)
	}
	for ; n%4 != 0; n++ {
		dst = append(dst, KindNOP)
	}
	return dst, nil
}

// ParseChallenge decodes a 0xfc option. The returned Challenge.Preimage
// aliases o.Data rather than copying it: it stays valid exactly as long as
// the caller leaves the option bytes unmodified, and a caller that reuses
// its read buffer must copy the preimage out first.
func ParseChallenge(o Option) (ChallengeBlock, error) {
	if o.Kind != KindChallenge {
		return ChallengeBlock{}, fmt.Errorf("tcpopt: kind 0x%02x: %w", o.Kind, ErrChallengeMalformed)
	}
	if len(o.Data) < 3 {
		return ChallengeBlock{}, fmt.Errorf("tcpopt: challenge %d bytes: %w",
			len(o.Data), ErrChallengeMalformed)
	}
	params := puzzle.Params{K: o.Data[0], M: o.Data[1], L: o.Data[2]}
	if err := params.Validate(); err != nil {
		return ChallengeBlock{}, fmt.Errorf("tcpopt: challenge params: %w", err)
	}
	rest := o.Data[3:]
	preLen := params.SolutionBytes()
	var blk ChallengeBlock
	switch len(rest) {
	case preLen:
	case preLen + 4:
		blk.HasTimestamp = true
		blk.Challenge.Timestamp = binary.BigEndian.Uint32(rest[preLen:])
	default:
		return ChallengeBlock{}, fmt.Errorf("tcpopt: challenge body %d bytes for l=%d: %w",
			len(rest), params.L, ErrChallengeMalformed)
	}
	blk.Challenge.Params = params
	blk.Challenge.Preimage = rest[:preLen:preLen]
	return blk, nil
}

// EncodeSolution encodes a solved challenge into a 0xfd option.
func EncodeSolution(blk SolutionBlock) (Option, error) {
	params := blk.Solution.Params
	if err := params.Validate(); err != nil {
		return Option{}, err
	}
	if len(blk.Solution.Solutions) != int(params.K) {
		return Option{}, fmt.Errorf("tcpopt: %d solutions, want %d: %w",
			len(blk.Solution.Solutions), params.K, ErrSolutionMalformed)
	}
	data := make([]byte, 0, 3+4+int(params.K)*params.SolutionBytes())
	data = binary.BigEndian.AppendUint16(data, blk.MSS)
	data = append(data, blk.WScale)
	if blk.HasTimestamp {
		data = binary.BigEndian.AppendUint32(data, blk.Solution.Timestamp)
	}
	for i, s := range blk.Solution.Solutions {
		if len(s) != params.SolutionBytes() {
			return Option{}, fmt.Errorf("tcpopt: solution %d is %d bytes, want %d: %w",
				i+1, len(s), params.SolutionBytes(), ErrSolutionMalformed)
		}
		data = append(data, s...)
	}
	if 2+len(data) > MaxOptionsLen {
		return Option{}, fmt.Errorf("tcpopt: solution block %d bytes: %w", 2+len(data), ErrTooLarge)
	}
	return Option{Kind: KindSolution, Data: data}, nil
}

// ParseSolution decodes a 0xfd option. The stateless server interprets the
// block against its currently configured difficulty parameters; timestamp
// presence is deduced from the block length.
func ParseSolution(o Option, params puzzle.Params) (SolutionBlock, error) {
	if o.Kind != KindSolution {
		return SolutionBlock{}, fmt.Errorf("tcpopt: kind 0x%02x: %w", o.Kind, ErrSolutionMalformed)
	}
	if err := params.Validate(); err != nil {
		return SolutionBlock{}, err
	}
	solLen := int(params.K) * params.SolutionBytes()
	var blk SolutionBlock
	switch len(o.Data) {
	case 3 + solLen:
	case 3 + 4 + solLen:
		blk.HasTimestamp = true
	default:
		return SolutionBlock{}, fmt.Errorf("tcpopt: solution body %d bytes for %v: %w",
			len(o.Data), params, ErrSolutionMalformed)
	}
	blk.MSS = binary.BigEndian.Uint16(o.Data)
	blk.WScale = o.Data[2]
	rest := o.Data[3:]
	if blk.HasTimestamp {
		blk.Solution.Timestamp = binary.BigEndian.Uint32(rest)
		rest = rest[4:]
	}
	blk.Solution.Params = params
	blk.Solution.Solutions = make([][]byte, params.K)
	sb := params.SolutionBytes()
	for i := 0; i < int(params.K); i++ {
		blk.Solution.Solutions[i] = append([]byte(nil), rest[i*sb:(i+1)*sb]...)
	}
	return blk, nil
}

// SizeChallenge is AppendChallenge without the bytes: the size it
// appends for a challenge under p, or the error it returns for one whose
// preimage is well formed.
func SizeChallenge(p puzzle.Params, embedTS bool) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n := ChallengeWireSize(p, embedTS)
	if n > MaxOptionsLen {
		return 0, fmt.Errorf("tcpopt: challenge block %d bytes: %w", n, ErrTooLarge)
	}
	return n, nil
}

// ChallengeWireSize returns the encoded (padded) size in bytes of a
// challenge option for the given parameters — the paper's "low packet-size
// overhead" metric.
func ChallengeWireSize(p puzzle.Params, embedTS bool) int {
	n := 2 + 3 + p.SolutionBytes()
	if embedTS {
		n += 4
	}
	return align4(n)
}

func align4(n int) int { return (n + 3) &^ 3 }
