package game

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// DefaultHandshakeBudget is the usability budget for completing a handshake
// under attack: 400 ms does not interrupt a user's flow of thought
// (paper §4.3, citing Nielsen).
const DefaultHandshakeBudget = 400 * time.Millisecond

// WavFromHashRate converts a device's hash rate (hashes/second) into a
// client valuation w: the hashes the device can spend within the handshake
// usability budget (paper §4.3; DefaultHandshakeBudget).
func WavFromHashRate(hashesPerSecond float64, budget time.Duration) float64 {
	return hashesPerSecond * budget.Seconds()
}

// WavAverage returns the average valuation over a fleet of device hash
// rates — the paper's w_av over cpu1..cpu3 (Fig. 3a).
func WavAverage(hashesPerSecond []float64, budget time.Duration) (float64, error) {
	if len(hashesPerSecond) == 0 {
		return 0, fmt.Errorf("game: no devices: %w", ErrInvalidModel)
	}
	var sum float64
	for _, r := range hashesPerSecond {
		if r <= 0 || math.IsNaN(r) {
			return 0, fmt.Errorf("game: hash rate %v: %w", r, ErrInvalidModel)
		}
		sum += WavFromHashRate(r, budget)
	}
	return sum / float64(len(hashesPerSecond)), nil
}

// StressPoint is one sample from a server stress test (Fig. 3b): the
// sustained service rate observed at a given concurrency.
type StressPoint struct {
	// Concurrent is the number of concurrent requests offered.
	Concurrent int
	// ServiceRate is the sustained service rate µ in requests/second.
	ServiceRate float64
}

// Alpha returns the service parameter for one stress point, α = µ/n: the
// asymptotic per-user service capacity.
func Alpha(p StressPoint) (float64, error) {
	if p.Concurrent <= 0 || p.ServiceRate <= 0 {
		return 0, fmt.Errorf("game: stress point %+v: %w", p, ErrInvalidModel)
	}
	return p.ServiceRate / float64(p.Concurrent), nil
}

// AlphaFromStress estimates the asymptotic α from a stress-test sweep: the
// α of the highest-concurrency point, which is where µ/n has converged
// (paper §4.3 takes the limit as load increases).
func AlphaFromStress(points []StressPoint) (float64, error) {
	if len(points) == 0 {
		return 0, fmt.Errorf("game: no stress points: %w", ErrInvalidModel)
	}
	sorted := make([]StressPoint, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Concurrent < sorted[j].Concurrent })
	return Alpha(sorted[len(sorted)-1])
}
