// Package mm1 provides the M/M/1 service abstraction of paper §4.1 — the
// analytic sojourn time S(x̄) = 1/(µ−x̄) and queue length — together with
// the closed-loop stress-test harness used to estimate the server's
// service parameter α (Fig. 3b).
package mm1

import (
	"errors"
	"fmt"

	"github.com/tcppuzzles/tcppuzzles/game"
)

// ErrUnstable reports λ ≥ µ in an open queue analysis.
var ErrUnstable = errors.New("mm1: arrival rate at or above service rate")

// SojournTime returns the expected time in system S = 1/(µ−λ).
func SojournTime(mu, lambda float64) (float64, error) {
	if lambda >= mu {
		return 0, fmt.Errorf("mm1: λ=%v µ=%v: %w", lambda, mu, ErrUnstable)
	}
	return 1 / (mu - lambda), nil
}

// QueueLength returns the expected number in system L = ρ/(1−ρ).
func QueueLength(mu, lambda float64) (float64, error) {
	if lambda >= mu {
		return 0, fmt.Errorf("mm1: λ=%v µ=%v: %w", lambda, mu, ErrUnstable)
	}
	rho := lambda / mu
	return rho / (1 - rho), nil
}

// StressConfig describes the closed-loop stress test of §4.3: n concurrent
// clients each issue the next request as soon as the previous one completes,
// after a think time.
type StressConfig struct {
	// ServiceRate is the server's µ in requests/second.
	ServiceRate float64
	// ThinkTime is the per-client delay between completing one request and
	// issuing the next, in seconds (network RTT + client processing). It
	// shapes the ramp of Fig. 3b.
	ThinkTime float64
}

// Throughput returns the sustained service rate at concurrency n under the
// interactive (machine-repairman) bound: X(n) = min(n/(Z+S), µ).
func (c StressConfig) Throughput(n int) float64 {
	s := 1 / c.ServiceRate
	x := float64(n) / (c.ThinkTime + s)
	if x > c.ServiceRate {
		return c.ServiceRate
	}
	return x
}

// Sweep runs the stress test across concurrency levels and returns the
// stress points used to estimate α (Fig. 3b).
func (c StressConfig) Sweep(levels []int) []game.StressPoint {
	out := make([]game.StressPoint, 0, len(levels))
	for _, n := range levels {
		out = append(out, game.StressPoint{Concurrent: n, ServiceRate: c.Throughput(n)})
	}
	return out
}

// PaperStress returns the stress configuration matching the paper's Apache
// deployment: µ ≈ 1100 requests/second with the think time chosen so the
// plateau is reached by ~1000 concurrent requests and α converges to 1.1.
func PaperStress() StressConfig {
	return StressConfig{ServiceRate: 1100, ThinkTime: 0.050}
}
