// Package syncookie implements stateless TCP SYN cookies (Bernstein 1997),
// the baseline defense the paper compares client puzzles against.
//
// A cookie packs three fields into the server's 32-bit initial sequence
// number:
//
//	bits 31..27  time counter t mod 32 (64-second granularity)
//	bits 26..24  index into a fixed 8-entry MSS table (3 bits — the paper
//	             §5 contrasts this with the 16-bit MSS carried by the
//	             puzzle solution option)
//	bits 23..0   truncated keyed hash of (flow, t, mss index)
//
// The server keeps no per-connection state: when the final ACK arrives it
// re-derives the hash for the recent time counters and accepts the
// connection if one matches. As the paper notes, cookies cannot carry the
// window-scale option and quantise the MSS, degrading connection
// performance, and they offer no protection against connection floods
// because a bot with a real address simply completes the handshake.
package syncookie

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/xrand"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// CounterGranularity is the wall-clock width of one cookie time counter
// tick.
const CounterGranularity = 64 * time.Second

// mssTable quantises the client's announced MSS into 3 bits. Entries are
// ascending; the encoder picks the largest entry not exceeding the
// announced value.
var mssTable = [8]uint16{216, 460, 536, 940, 1220, 1300, 1440, 1460}

var (
	// ErrBadCookie reports a cookie whose hash does not validate for any
	// acceptable time counter.
	ErrBadCookie = errors.New("syncookie: invalid cookie")
	// ErrStale reports a cookie older than the acceptance window.
	ErrStale = errors.New("syncookie: cookie expired")
)

// SecretLen is the length of the cookie secret in bytes.
const SecretLen = 32

// maxTicks is the validation window in counter ticks (inclusive): two
// ticks (128 s), matching common implementations.
const maxTicks = 2

// Jar issues and validates SYN cookies. The zero value is unusable; create
// one with New. A Jar is safe for concurrent use (it is immutable after
// construction except for the injected clock).
type Jar struct {
	secret [SecretLen]byte
	now    func() time.Time
	// simulated selects the keyed-mix hash of WithSimulatedHash; simKey
	// is the secret folded to its key.
	simulated bool
	simKey    uint64
}

// Option customises a Jar.
type Option func(*Jar)

// WithClock overrides the time source.
func WithClock(now func() time.Time) Option {
	return func(j *Jar) { j.now = now }
}

// WithSimulatedHash makes the jar SIMULATE the cookie hash instead of
// computing it: the 24 hash bits are a keyed 64-bit mix of (secret, flow,
// counter, MSS index) — a few multiplications, NOT SHA-256 and NOT
// unforgeable. Round-trip, flow binding, tamper detection and the
// acceptance window are unchanged; only the bits differ. It exists for
// the discrete-event simulator, which charges hash work to a modelled CPU
// and must not also burn host time on it; nothing that talks to a real
// network may set it.
func WithSimulatedHash() Option {
	return func(j *Jar) { j.simulated = true }
}

// New returns a Jar with a secret derived from the provided seed bytes, or
// random when seed is nil.
func New(seed []byte, opts ...Option) *Jar {
	j := &Jar{now: time.Now}
	if seed == nil {
		seed = binary.BigEndian.AppendUint64(nil, uint64(time.Now().UnixNano()))
	}
	sum := sha256.Sum256(seed)
	copy(j.secret[:], sum[:])
	for _, opt := range opts {
		opt(j)
	}
	j.simKey = xrand.Mix(0,
		binary.BigEndian.Uint64(j.secret[0:]), binary.BigEndian.Uint64(j.secret[8:]),
		binary.BigEndian.Uint64(j.secret[16:]), binary.BigEndian.Uint64(j.secret[24:]))
	return j
}

// Encode produces a cookie ISN for the given flow and the client's
// announced MSS.
func (j *Jar) Encode(flow puzzle.FlowID, mss uint16) uint32 {
	t := j.counter()
	idx := encodeMSS(mss)
	return assemble(t, idx, j.hash(flow, t, idx))
}

// Decode validates a cookie echoed in an ACK (the ACK field minus one) and
// returns the quantised MSS that was encoded.
func (j *Jar) Decode(flow puzzle.FlowID, cookie uint32) (mss uint16, err error) {
	now := j.counter()
	tBits := cookie >> 27
	idx := uint8((cookie >> 24) & 0x7)
	hash := cookie & 0xffffff

	// Reconstruct the full counter: the most recent t ≤ now whose low five
	// bits match.
	var t uint32
	switch {
	case now&0x1f >= tBits:
		t = now - (now & 0x1f) + tBits
	default:
		t = now - (now & 0x1f) - 32 + tBits
	}
	if now-t > maxTicks {
		return 0, fmt.Errorf("syncookie: cookie %d ticks old: %w", now-t, ErrStale)
	}
	if j.hash(flow, t, idx) != hash {
		return 0, ErrBadCookie
	}
	return mssTable[idx], nil
}

// counter returns the current time counter.
func (j *Jar) counter() uint32 {
	return uint32(j.now().Unix() / int64(CounterGranularity/time.Second))
}

// hash computes the 24-bit keyed hash bound to flow, counter and MSS index.
func (j *Jar) hash(flow puzzle.FlowID, t uint32, idx uint8) uint32 {
	if j.simulated {
		return uint32(xrand.Mix(j.simKey,
			uint64(binary.BigEndian.Uint32(flow.SrcIP[:]))<<32|uint64(binary.BigEndian.Uint32(flow.DstIP[:])),
			uint64(flow.SrcPort)<<48|uint64(flow.DstPort)<<32|uint64(flow.ISN),
			uint64(t)<<8|uint64(idx))) & 0xffffff
	}
	buf := make([]byte, 0, SecretLen+24)
	buf = append(buf, j.secret[:]...)
	buf = append(buf, flow.SrcIP[:]...)
	buf = append(buf, flow.DstIP[:]...)
	buf = binary.BigEndian.AppendUint16(buf, flow.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, flow.DstPort)
	buf = binary.BigEndian.AppendUint32(buf, flow.ISN)
	buf = binary.BigEndian.AppendUint32(buf, t)
	buf = append(buf, idx)
	sum := sha256.Sum256(buf)
	return binary.BigEndian.Uint32(sum[:4]) & 0xffffff
}

func assemble(t uint32, idx uint8, hash uint32) uint32 {
	return (t&0x1f)<<27 | uint32(idx&0x7)<<24 | hash&0xffffff
}

// encodeMSS returns the index of the largest table entry not exceeding mss
// (index 0 when mss is smaller than every entry).
func encodeMSS(mss uint16) uint8 {
	best := 0
	for i, v := range mssTable {
		if v <= mss {
			best = i
		}
	}
	return uint8(best)
}
