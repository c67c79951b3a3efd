package puzzle

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/xrand"
)

// SecretLen is the length of the server secret in bytes.
const SecretLen = 32

// DefaultMaxAge is the default replay window: solutions older than this are
// rejected (tunable via the kernel's sysctl interface in the paper).
const DefaultMaxAge = 30 * time.Second

// DefaultMaxSkew is the default tolerated clock skew for timestamps that
// appear to come from the future.
const DefaultMaxSkew = 2 * time.Second

// Challenge is a puzzle challenge as carried in a SYN-ACK's option block.
type Challenge struct {
	// Params is the difficulty the solutions must meet.
	Params Params
	// Timestamp is the issue time in Unix seconds, echoed by the client so
	// that the stateless server can re-derive the preimage and enforce
	// expiry.
	Timestamp uint32
	// Preimage is the first Params.L bits (L/8 bytes) of the challenge hash
	// y = h(secret || timestamp || flow).
	Preimage []byte
}

// Solution is a solved challenge as carried in an ACK's option block.
type Solution struct {
	// Params echoes the difficulty the solutions were computed for.
	Params Params
	// Timestamp echoes the challenge timestamp.
	Timestamp uint32
	// Solutions holds the k solution bitstrings, each Params.L bits.
	Solutions [][]byte
}

// VerifyInfo reports accounting detail from a verification.
type VerifyInfo struct {
	// Hashes is the number of hash operations performed (1 to re-derive the
	// preimage plus one per checked solution).
	Hashes int
	// Checked is the number of solutions inspected before acceptance or the
	// first violation.
	Checked int
}

// Issuer creates and verifies puzzle challenges statelessly. An Issuer is
// safe for concurrent use; difficulty parameters may be retuned at runtime
// with SetParams, mirroring the sysctl interface of the kernel patch.
type Issuer struct {
	mu      sync.RWMutex
	secret  [SecretLen]byte
	params  Params
	maxAge  time.Duration
	maxSkew time.Duration
	now     func() time.Time

	// simulated selects the keyed-mix preimage of WithSimulatedPreimage,
	// simKey is the secret folded to its key, and carve (may be nil) is
	// where Issue takes preimage memory from.
	simulated bool
	simKey    uint64
	carve     func(n int) []byte
}

// IssuerOption customises an Issuer.
type IssuerOption func(*Issuer)

// WithParams sets the initial difficulty parameters.
func WithParams(p Params) IssuerOption {
	return func(is *Issuer) { is.params = p }
}

// WithSecret sets the server secret. The secret must be SecretLen bytes; it
// is copied.
func WithSecret(secret []byte) IssuerOption {
	return func(is *Issuer) { copy(is.secret[:], secret) }
}

// WithMaxAge sets the replay window after which challenges expire.
func WithMaxAge(d time.Duration) IssuerOption {
	return func(is *Issuer) { is.maxAge = d }
}

// WithMaxSkew sets the tolerated forward clock skew.
func WithMaxSkew(d time.Duration) IssuerOption {
	return func(is *Issuer) { is.maxSkew = d }
}

// WithClock overrides the time source (used by tests and the simulator).
func WithClock(now func() time.Time) IssuerOption {
	return func(is *Issuer) { is.now = now }
}

// WithSimulatedPreimage makes the issuer SIMULATE the challenge hash
// instead of computing it: the preimage is a keyed 64-bit mix of (secret,
// timestamp, flow) — a few multiplications, NOT SHA-256 and NOT
// unpredictable to an adversary. Flow binding, expiry, parameter matching
// and the hash counts Verify reports are unchanged; only the preimage
// bits differ. It exists for the discrete-event simulator, which charges
// hash work to a modelled CPU and must not also burn host time on it;
// nothing that talks to a real network may set it.
//
// carve, when non-nil, supplies the memory of each preimage Issue and
// IssueAt hand out (n bytes per call, never reused by the issuer), so a
// caller issuing from one goroutine can carve them from a buffer it owns
// instead of paying a heap object per challenge. It is called outside the
// issuer's lock.
func WithSimulatedPreimage(carve func(n int) []byte) IssuerOption {
	return func(is *Issuer) { is.simulated, is.carve = true, carve }
}

// NewIssuer returns an Issuer with a fresh random secret, the paper's
// default difficulty, and the default replay window.
func NewIssuer(opts ...IssuerOption) (*Issuer, error) {
	is := &Issuer{
		params:  DefaultParams(),
		maxAge:  DefaultMaxAge,
		maxSkew: DefaultMaxSkew,
		//tcpz:allow nodeterm — default for real-protocol callers (puzzlenet) only; internal/serversim always overrides it with the engine clock via WithClock
		now: time.Now,
	}
	//tcpz:allow nodeterm — the fresh random secret is for real-protocol callers only; internal/serversim overwrites all SecretLen bytes via WithSecret from Config.Seed, so a simulated run's preimage bits repeat
	if _, err := rand.Read(is.secret[:]); err != nil {
		return nil, fmt.Errorf("puzzle: generate secret: %w", err)
	}
	for _, opt := range opts {
		opt(is)
	}
	is.simKey = xrand.Mix(0,
		binary.BigEndian.Uint64(is.secret[0:]), binary.BigEndian.Uint64(is.secret[8:]),
		binary.BigEndian.Uint64(is.secret[16:]), binary.BigEndian.Uint64(is.secret[24:]))
	if err := is.params.Validate(); err != nil {
		return nil, err
	}
	return is, nil
}

// Params returns the current difficulty parameters.
func (is *Issuer) Params() Params {
	is.mu.RLock()
	defer is.mu.RUnlock()
	return is.params
}

// SetParams retunes the difficulty at runtime. Outstanding challenges issued
// under the previous parameters will no longer verify (the server is
// stateless and checks against the current setting only).
func (is *Issuer) SetParams(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	is.mu.Lock()
	defer is.mu.Unlock()
	is.params = p
	return nil
}

// Issue creates a challenge bound to the given flow at the current time.
// Issuing performs exactly one hash operation (g(p) = 1).
func (is *Issuer) Issue(flow FlowID) Challenge {
	is.mu.RLock()
	params := is.params
	now := is.now()
	is.mu.RUnlock()
	return is.issue(flow, uint32(now.Unix()), params)
}

// IssueAt creates a challenge with an explicit timestamp. It exists for the
// simulator and for tests; production callers use Issue.
func (is *Issuer) IssueAt(flow FlowID, ts uint32) Challenge {
	is.mu.RLock()
	params := is.params
	is.mu.RUnlock()
	return is.issue(flow, ts, params)
}

func (is *Issuer) issue(flow FlowID, ts uint32, params Params) Challenge {
	n := params.SolutionBytes()
	var pre []byte
	if is.carve != nil {
		pre = is.carve(n)[:0]
	} else {
		pre = make([]byte, 0, n)
	}
	return Challenge{Params: params, Timestamp: ts, Preimage: is.appendPreimage(pre, flow, ts, params)}
}

// appendPreimage appends the first params.L bits of the challenge hash
// y = h(secret || ts || flow) to dst: a SHA-256 prefix, or successive
// words of the keyed mix under WithSimulatedPreimage.
func (is *Issuer) appendPreimage(dst []byte, flow FlowID, ts uint32, params Params) []byte {
	n := params.SolutionBytes()
	if is.simulated {
		y := xrand.Mix(is.simKey, uint64(ts),
			uint64(binary.BigEndian.Uint32(flow.SrcIP[:]))<<32|uint64(binary.BigEndian.Uint32(flow.DstIP[:])),
			uint64(flow.SrcPort)<<48|uint64(flow.DstPort)<<32|uint64(flow.ISN))
		for i := 0; i < n; i += 8 {
			var w [8]byte
			binary.BigEndian.PutUint64(w[:], xrand.Mix(y, uint64(i)))
			dst = append(dst, w[:min(8, n-i)]...)
		}
		return dst
	}
	buf := make([]byte, 0, SecretLen+4+16)
	buf = append(buf, is.secret[:]...)
	buf = binary.BigEndian.AppendUint32(buf, ts)
	buf = flow.appendBytes(buf)
	sum := sha256.Sum256(buf)
	return append(dst, sum[:n]...)
}

// PreimageFor re-derives the challenge preimage for a flow and timestamp
// under the current parameters. It enables delegated or simulated
// verification (e.g. a front-end proxy that shares the secret, paper §7).
func (is *Issuer) PreimageFor(flow FlowID, ts uint32) []byte {
	is.mu.RLock()
	params := is.params
	is.mu.RUnlock()
	return is.appendPreimage(make([]byte, 0, params.SolutionBytes()), flow, ts, params)
}

// ValidateTimestamp checks a solution timestamp against the replay window
// and clock-skew policy without verifying any solutions.
func (is *Issuer) ValidateTimestamp(ts uint32) error {
	is.mu.RLock()
	maxAge := is.maxAge
	maxSkew := is.maxSkew
	now := is.now()
	is.mu.RUnlock()
	issued := time.Unix(int64(ts), 0)
	if age := now.Sub(issued); age > maxAge {
		return fmt.Errorf("puzzle: solution age %v exceeds %v: %w", age, maxAge, ErrExpired)
	}
	if ahead := issued.Sub(now); ahead > maxSkew {
		return fmt.Errorf("puzzle: timestamp %v ahead of clock: %w", ahead, ErrFutureTimestamp)
	}
	return nil
}

// Verify checks a solution against the flow it claims to belong to. It
// performs no lookups in per-connection state: everything needed is
// re-derived from the secret, the echoed timestamp, and the packet header.
func (is *Issuer) Verify(flow FlowID, sol Solution) error {
	_, err := is.VerifyDetailed(flow, sol)
	return err
}

// VerifyDetailed is Verify with hash-operation accounting, used by the
// simulator's CPU model and by benchmarks.
func (is *Issuer) VerifyDetailed(flow FlowID, sol Solution) (VerifyInfo, error) {
	is.mu.RLock()
	params := is.params
	maxAge := is.maxAge
	maxSkew := is.maxSkew
	now := is.now()
	is.mu.RUnlock()

	var info VerifyInfo
	if sol.Params != params {
		return info, fmt.Errorf("puzzle: solution for %v, server at %v: %w",
			sol.Params, params, ErrParamMismatch)
	}
	issued := time.Unix(int64(sol.Timestamp), 0)
	if age := now.Sub(issued); age > maxAge {
		return info, fmt.Errorf("puzzle: solution age %v exceeds %v: %w", age, maxAge, ErrExpired)
	}
	if ahead := issued.Sub(now); ahead > maxSkew {
		return info, fmt.Errorf("puzzle: timestamp %v ahead of clock: %w", ahead, ErrFutureTimestamp)
	}
	var buf [MaxPreimageBits / 8]byte
	pre := is.appendPreimage(buf[:0], flow, sol.Timestamp, params)
	info.Hashes = 1
	n, err := VerifySolutions(pre, params, sol.Solutions)
	info.Hashes += n
	info.Checked = n
	return info, err
}

// VerifySolutions checks k solutions against a preimage and difficulty. It
// returns the number of solutions hashed before returning (all k on success,
// fewer on the first violation).
func VerifySolutions(preimage []byte, params Params, solutions [][]byte) (checked int, err error) {
	if len(preimage) != params.SolutionBytes() {
		return 0, fmt.Errorf("puzzle: preimage %d bytes, want %d: %w",
			len(preimage), params.SolutionBytes(), ErrWrongLength)
	}
	if len(solutions) != int(params.K) {
		return 0, fmt.Errorf("puzzle: got %d solutions, want %d: %w",
			len(solutions), params.K, ErrWrongCount)
	}
	for i, s := range solutions {
		if len(s) != params.SolutionBytes() {
			return checked, fmt.Errorf("puzzle: solution %d is %d bytes, want %d: %w",
				i+1, len(s), params.SolutionBytes(), ErrWrongLength)
		}
		checked++
		if !SolutionValid(preimage, params, uint8(i+1), s) {
			return checked, fmt.Errorf("puzzle: solution %d fails %d-bit check: %w",
				i+1, params.M, ErrBadSolution)
		}
	}
	return checked, nil
}

// SolutionValid reports whether s genuinely solves sub-puzzle index
// (counted from 1) of the puzzle on preimage P: whether the first M bits
// of h(P || index || s) equal the first M bits of P.
func SolutionValid(preimage []byte, params Params, index uint8, s []byte) bool {
	digest := solutionDigest(preimage, index, s)
	return leadingBitsEqual(digest[:], preimage, int(params.M))
}

// solutionDigest computes h(P || i || s).
func solutionDigest(preimage []byte, index uint8, s []byte) [sha256.Size]byte {
	buf := make([]byte, 0, len(preimage)+1+len(s))
	buf = append(buf, preimage...)
	buf = append(buf, index)
	buf = append(buf, s...)
	return sha256.Sum256(buf)
}
