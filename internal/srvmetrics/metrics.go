// Package srvmetrics holds the protected server's measurement state. It
// lives below both the server simulator and the defense plugin API: core
// server code (internal/serversim) and registered defense strategies
// (package defense) account into the same Metrics through the ServerCtx
// facade, so a plugin's counters land in the same figures the paper draws.
package srvmetrics

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/stats"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
)

// Metrics collects the server-side measurements the paper's figures draw
// on. Counters are cumulative; series are bucketed by the configured metric
// bucket.
type Metrics struct {
	// BytesIn and BytesOut feed the server throughput plots (Figs. 7, 8).
	BytesIn  *stats.Series
	BytesOut *stats.Series

	// ListenLen and AcceptLen trace queue occupancy (Fig. 10), sampled
	// once per metric bucket.
	ListenLen *stats.Gauge
	AcceptLen *stats.Gauge
	// DifficultyM traces the adaptive controller's difficulty setting.
	DifficultyM *stats.Gauge

	// ChallengesSent / PlainSynAcks / CookieSynAcks reproduce the Fig. 8
	// sparkline distinguishing challenged from unchallenged SYN-ACKs.
	ChallengesSent *stats.Series
	PlainSynAcks   *stats.Series
	CookieSynAcks  *stats.Series

	// Established tracks completed handshakes per second.
	Established *stats.Series

	SYNsReceived        uint64
	SYNsDropped         uint64
	AcceptOverflow      uint64
	CookieFailures      uint64
	SolutionsVerified   uint64
	SolutionInvalid     uint64
	SolutionMalformed   uint64
	AcksWithoutSolution uint64
	DeceptionIgnored    uint64
	ReplaysBlocked      uint64
	EncodeFailures      uint64
	RSTsSent            uint64
	RequestsServed      uint64
	IdleTimeouts        uint64

	// aggMatch, when set, also counts matching sources' establishments
	// in the single EstablishedAgg series — the attacker's effective rate
	// (Figs. 11, 13, 14) at O(1) cost in population size: a million
	// sources cost one series, not a million.
	aggMatch       func([4]byte) bool
	EstablishedAgg *stats.Series

	bucket time.Duration
}

// New returns an empty Metrics with the given bucket width.
func New(bucket time.Duration) *Metrics {
	return &Metrics{
		BytesIn:        stats.NewSeries(bucket),
		BytesOut:       stats.NewSeries(bucket),
		ListenLen:      stats.NewGauge(bucket),
		AcceptLen:      stats.NewGauge(bucket),
		DifficultyM:    stats.NewGauge(bucket),
		ChallengesSent: stats.NewSeries(bucket),
		PlainSynAcks:   stats.NewSeries(bucket),
		CookieSynAcks:  stats.NewSeries(bucket),
		Established:    stats.NewSeries(bucket),
		bucket:         bucket,
	}
}

// AggregateSrcs registers a source-population predicate: establishments
// from matching sources are also accumulated in one aggregate series.
// Register before the simulation runs.
func (m *Metrics) AggregateSrcs(match func([4]byte) bool) {
	m.aggMatch = match
	m.EstablishedAgg = stats.NewSeries(m.bucket)
}

// AggregateEstablishedRate returns the aggregated population's completed
// connections per second.
func (m *Metrics) AggregateEstablishedRate(until time.Duration) []float64 {
	if m.EstablishedAgg == nil {
		return stats.NewSeries(m.bucket).RatePerSecond(until)
	}
	return m.EstablishedAgg.RatePerSecond(until)
}

// RecordEstablished accounts one completed handshake, in total and, for
// an aggregated source, in the population's series.
func (m *Metrics) RecordEstablished(at time.Duration, peer tcpkit.PeerKey) {
	m.Established.Add(at, 1)
	if m.aggMatch != nil && m.aggMatch(peer.IP) {
		m.EstablishedAgg.Add(at, 1)
	}
}
