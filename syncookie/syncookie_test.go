package syncookie

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

func testFlow() puzzle.FlowID {
	return puzzle.FlowID{
		SrcIP:   [4]byte{192, 168, 1, 10},
		DstIP:   [4]byte{10, 0, 0, 1},
		SrcPort: 50000,
		DstPort: 443,
		ISN:     123456,
	}
}

func fixedJar(t0 time.Time, opts ...Option) (*Jar, *time.Time) {
	now := t0
	j := New([]byte("seed"), append(opts, WithClock(func() time.Time { return now }))...)
	return j, &now
}

// bothHashes runs a jar test over the SHA-256 hash and over the
// simulator's keyed mix: everything but the 24 hash bits must hold alike.
func bothHashes(t *testing.T, test func(t *testing.T, hash ...Option)) {
	t.Run("sha256", func(t *testing.T) { test(t) })
	t.Run("simulated", func(t *testing.T) { test(t, WithSimulatedHash()) })
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	bothHashes(t, func(t *testing.T, hash ...Option) {
		j, _ := fixedJar(time.Unix(1_700_000_000, 0), hash...)
		flow := testFlow()
		cookie := j.Encode(flow, 1460)
		mss, err := j.Decode(flow, cookie)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if mss != 1460 {
			t.Errorf("mss = %d, want 1460", mss)
		}
	})
}

func TestMSSQuantisation(t *testing.T) {
	tests := []struct {
		in, want uint16
	}{
		{1460, 1460},
		{1500, 1460},
		{1459, 1440},
		{1300, 1300},
		{100, 216}, // below table minimum clamps to smallest entry
		{536, 536},
		{9000, 1460},
	}
	for _, tt := range tests {
		if got := QuantisedMSS(tt.in); got != tt.want {
			t.Errorf("QuantisedMSS(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestDecodeRejectsWrongFlow(t *testing.T) {
	bothHashes(t, func(t *testing.T, hash ...Option) {
		j, _ := fixedJar(time.Unix(1_700_000_000, 0), hash...)
		flow := testFlow()
		cookie := j.Encode(flow, 1460)
		other := flow
		other.SrcPort++
		if _, err := j.Decode(other, cookie); !errors.Is(err, ErrBadCookie) {
			t.Errorf("Decode(wrong flow) error = %v, want ErrBadCookie", err)
		}
	})
}

func TestDecodeRejectsTamperedCookie(t *testing.T) {
	bothHashes(t, func(t *testing.T, hash ...Option) {
		j, _ := fixedJar(time.Unix(1_700_000_000, 0), hash...)
		flow := testFlow()
		cookie := j.Encode(flow, 1460)
		if _, err := j.Decode(flow, cookie^1); err == nil {
			t.Error("Decode accepted a bit-flipped cookie")
		}
	})
}

func TestDecodeWithinWindow(t *testing.T) {
	bothHashes(t, func(t *testing.T, hash ...Option) {
		j, now := fixedJar(time.Unix(1_700_000_000, 0), hash...)
		flow := testFlow()
		cookie := j.Encode(flow, 1300)

		*now = now.Add(90 * time.Second) // one tick later, within the 2-tick window
		if _, err := j.Decode(flow, cookie); err != nil {
			t.Fatalf("Decode one tick later: %v", err)
		}

		*now = now.Add(10 * time.Minute)
		if _, err := j.Decode(flow, cookie); !errors.Is(err, ErrStale) {
			t.Errorf("Decode stale cookie error = %v, want ErrStale", err)
		}
	})
}

func TestDistinctSecretsReject(t *testing.T) {
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	a := New([]byte("a"), WithClock(clock))
	b := New([]byte("b"), WithClock(clock))
	flow := testFlow()
	if _, err := b.Decode(flow, a.Encode(flow, 1460)); err == nil {
		t.Error("jar B accepted jar A's cookie")
	}
}

func TestCounterWrapAround(t *testing.T) {
	bothHashes(t, func(t *testing.T, hash ...Option) {
		// Choose a time where counter mod 32 is 0 so the previous tick wraps.
		base := time.Unix(0, 0).Add(CounterGranularity * 32 * 1000)
		j, now := fixedJar(base.Add(-30*time.Second), hash...) // just before a tick boundary
		flow := testFlow()
		cookie := j.Encode(flow, 1460)
		*now = now.Add(60 * time.Second) // crosses the boundary
		if _, err := j.Decode(flow, cookie); err != nil {
			t.Fatalf("Decode across counter boundary: %v", err)
		}
	})
}

// Property: encode→decode round-trips for arbitrary flows and MSS values
// and always returns a table MSS ≤ the announced MSS (or the minimum).
func TestRoundTripProperty(t *testing.T) {
	bothHashes(t, func(t *testing.T, hash ...Option) {
		j, _ := fixedJar(time.Unix(1_700_000_000, 0), hash...)
		f := func(src, dst [4]byte, sp, dp uint16, isn uint32, mss uint16) bool {
			flow := puzzle.FlowID{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, ISN: isn}
			got, err := j.Decode(flow, j.Encode(flow, mss))
			if err != nil {
				return false
			}
			return got == QuantisedMSS(mss)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Error(err)
		}
	})
}

// Property: a forged random cookie validates with probability ≈ 2^-24; in
// 2000 attempts we should essentially never see more than a couple.
func TestForgeryResistance(t *testing.T) {
	bothHashes(t, func(t *testing.T, hash ...Option) {
		j, _ := fixedJar(time.Unix(1_700_000_000, 0), hash...)
		flow := testFlow()
		accepted := 0
		for i := uint32(0); i < 2000; i++ {
			// Constrain the forgery to the current counter so only the hash
			// bits matter.
			forged := assemble(j.counter(), 7, i*2654435761)
			if _, err := j.Decode(flow, forged); err == nil {
				accepted++
			}
		}
		if accepted > 2 {
			t.Errorf("%d of 2000 forged cookies accepted", accepted)
		}
	})
}

// The option must actually replace the hash: with one secret, neither jar
// accepts the other's cookie, and the simulated jar still tells secrets
// apart.
func TestSimulatedHashIsItsOwnHash(t *testing.T) {
	clock := WithClock(func() time.Time { return time.Unix(1_700_000_000, 0) })
	sha := New([]byte("a"), clock)
	sim := New([]byte("a"), clock, WithSimulatedHash())
	other := New([]byte("b"), clock, WithSimulatedHash())
	flow := testFlow()
	cookie := sim.Encode(flow, 1460)
	if _, err := sim.Decode(flow, cookie); err != nil {
		t.Fatalf("simulated jar rejected its own cookie: %v", err)
	}
	if _, err := sha.Decode(flow, cookie); !errors.Is(err, ErrBadCookie) {
		t.Errorf("SHA-256 jar on a simulated cookie: %v, want ErrBadCookie", err)
	}
	if _, err := sim.Decode(flow, sha.Encode(flow, 1460)); !errors.Is(err, ErrBadCookie) {
		t.Errorf("simulated jar on a SHA-256 cookie: %v, want ErrBadCookie", err)
	}
	if _, err := other.Decode(flow, cookie); !errors.Is(err, ErrBadCookie) {
		t.Errorf("simulated jar with another secret: %v, want ErrBadCookie", err)
	}
}
