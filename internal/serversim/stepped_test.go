package serversim

import (
	"fmt"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestSteppedPuzzlesController drives the stepped-puzzles defense through
// one overload episode: four established connections nobody accepts hold
// the accept queue at its high-water mark, then the queue is drained and
// the latch released. Sampled every 250 ms, off the 5 s boundaries, m must
// climb exactly one bit per boundary up to the 18-bit cap while the latch
// holds, and decay one bit per boundary back to exactly the baseline after
// release — never moving in between. Along the way OverloadLatched must
// neither engage, refresh nor release the latch.
func TestSteppedPuzzlesController(t *testing.T) {
	const step, maxM = 5 * time.Second, 18
	for _, base := range []uint8{14, 17} {
		t.Run(fmt.Sprintf("baseline-m=%d", base), func(t *testing.T) {
			f := newFixture(t, Config{
				Defense:       sweep.DefenseSteppedPuzzles,
				PuzzleParams:  puzzle.Params{K: 2, M: base, L: 32},
				AcceptBacklog: 64, // high-water mark 4, low-water mark 2
				Workers:       -1, // nothing drains the accept queue
			})
			ctx := f.server.ctx()
			for i := 0; i < 4; i++ {
				port := uint16(9400 + i)
				f.syn(port, uint32(i))
				f.run(20 * time.Millisecond)
				f.ack(port, uint32(i), f.peer.lastSynAck(t).Seq, nil, 0)
				f.run(20 * time.Millisecond)
			}
			if got := f.server.AcceptLen(); got != ctx.AcceptHighWater() {
				t.Fatalf("AcceptLen = %d, want the high-water mark %d", got, ctx.AcceptHighWater())
			}
			// The queue is at its high-water mark but nothing has evaluated
			// the latch yet: reading it must not engage it.
			if ctx.OverloadLatched() {
				t.Fatal("OverloadLatched engaged the latch")
			}
			if !ctx.OverloadActive() {
				t.Fatal("OverloadActive did not engage at the high-water mark")
			}

			sample := func(until time.Duration, want func(now time.Duration) uint8) {
				t.Helper()
				for f.eng.Now() < until {
					f.run(250 * time.Millisecond)
					now := f.eng.Now()
					if got, w := f.server.Issuer().Params().M, want(now); got != w {
						t.Fatalf("at %v: m = %d, want %d", now, got, w)
					}
				}
			}
			boundaries := func(now time.Duration) uint8 { return uint8(now / step) }

			// Climb: one bit per boundary, capped. The controller reads the
			// latch every boundary; a reading that refreshed it would keep it
			// held past the release check below.
			sample(31*time.Second, func(now time.Duration) uint8 {
				return min(base+boundaries(now), maxM)
			})
			peak := f.server.Issuer().Params().M
			if peak != maxM {
				t.Fatalf("m peaked at %d, want the cap %d", peak, maxM)
			}

			// Drain to between the watermarks, read the latch (a re-evaluation
			// would refresh it here), then drain fully.
			f.server.acceptQ.Pop()
			f.server.acceptQ.Pop()
			if !ctx.OverloadLatched() {
				t.Fatal("latch not held after the climb")
			}
			f.server.acceptQ.Pop()
			f.server.acceptQ.Pop()
			// The latch was last loaded when it engaged, more than a release
			// window ago, so the first evaluation releases it.
			if ctx.OverloadActive() {
				t.Fatal("OverloadActive still latched: a latch read refreshed it")
			}
			released := boundaries(f.eng.Now())

			// Decay: one bit per boundary, back to exactly the baseline.
			sample(60*time.Second, func(now time.Duration) uint8 {
				down := boundaries(now) - released
				if down >= peak-base {
					return base
				}
				return peak - down
			})
		})
	}
}
