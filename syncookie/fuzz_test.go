package syncookie

import (
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
)

// FuzzCookieRoundTrip fuzzes the cookie codec over arbitrary flows, seeds
// and announced MSS values: Encode → Decode must always validate and
// return the quantised MSS, and a corrupted cookie must never panic — it
// either fails validation or (for the rare 24-bit hash collision) still
// yields an MSS from the quantisation table, never garbage.
func FuzzCookieRoundTrip(f *testing.F) {
	f.Add([]byte("seed"), []byte{10, 0, 0, 1, 10, 0, 0, 2}, uint16(1000), uint16(80), uint32(12345), uint16(1460), uint32(0))
	f.Add([]byte{}, []byte{1, 2, 3, 4}, uint16(0), uint16(0), uint32(0), uint16(0), uint32(1))
	f.Add([]byte{0xff}, []byte{255, 255, 255, 255, 255, 255, 255, 255}, uint16(65535), uint16(65535), uint32(0xffffffff), uint16(536), uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, seed, addrs []byte, sport, dport uint16, isn uint32, mss uint16, corrupt uint32) {
		var flow puzzle.FlowID
		copy(flow.SrcIP[:], addrs)
		if len(addrs) > 4 {
			copy(flow.DstIP[:], addrs[4:])
		}
		flow.SrcPort, flow.DstPort, flow.ISN = sport, dport, isn

		fixed := time.Unix(1_700_000_000, 0)
		jar := New(seed, WithClock(func() time.Time { return fixed }))
		cookie := jar.Encode(flow, mss)
		got, err := jar.Decode(flow, cookie)
		if err != nil {
			t.Fatalf("fresh cookie rejected: %v", err)
		}
		if want := quantisedMSS(mss); got != want {
			t.Fatalf("decoded MSS %d, want quantised %d (announced %d)", got, want, mss)
		}

		// A corrupted cookie must fail closed (or collide into a valid
		// quantised MSS — never an out-of-table value).
		if corrupt != 0 {
			if m, err := jar.Decode(flow, cookie^corrupt); err == nil {
				if m != quantisedMSS(m) {
					t.Fatalf("corrupt cookie decoded to unquantised MSS %d", m)
				}
			}
		}

		// A different flow must not validate the same cookie.
		other := flow
		other.ISN++
		if _, err := jar.Decode(other, cookie); err == nil {
			t.Fatal("cookie validated for a different flow")
		}
	})
}
