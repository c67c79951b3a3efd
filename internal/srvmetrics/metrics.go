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

	// Established tracks completed handshakes per second, and
	// EstablishedBySrc the same per source address (Figs. 11, 13, 14).
	Established      *stats.Series
	EstablishedBySrc map[[4]byte]*stats.Series

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

	// aggMatch, when set, routes matching sources' establishments into
	// the single EstablishedAgg series instead of per-source map entries,
	// keeping server-side attacker accounting O(1) in population size —
	// a million macro sources cost one series, not a million.
	aggMatch       func([4]byte) bool
	EstablishedAgg *stats.Series

	bucket time.Duration
}

// New returns an empty Metrics with the given bucket width.
func New(bucket time.Duration) *Metrics {
	return &Metrics{
		BytesIn:          stats.NewSeries(bucket),
		BytesOut:         stats.NewSeries(bucket),
		ListenLen:        stats.NewGauge(bucket),
		AcceptLen:        stats.NewGauge(bucket),
		DifficultyM:      stats.NewGauge(bucket),
		ChallengesSent:   stats.NewSeries(bucket),
		PlainSynAcks:     stats.NewSeries(bucket),
		CookieSynAcks:    stats.NewSeries(bucket),
		Established:      stats.NewSeries(bucket),
		EstablishedBySrc: make(map[[4]byte]*stats.Series),
		bucket:           bucket,
	}
}

// AggregateSrcs registers a source-population predicate: establishments
// from matching sources are accumulated in one aggregate series rather
// than per source. Register before the simulation runs; per-source
// queries (EstablishedRateFor) do not see aggregated sources.
func (m *Metrics) AggregateSrcs(match func([4]byte) bool) {
	m.aggMatch = match
	m.EstablishedAgg = stats.NewSeries(m.bucket)
}

// AggregateEstablishedRate returns the aggregated population's completed
// connections per second. Integer bucket counts, so for a population with
// the same establishments it is bit-identical to EstablishedRateFor over
// the member list.
func (m *Metrics) AggregateEstablishedRate(until time.Duration) []float64 {
	if m.EstablishedAgg == nil {
		return stats.NewSeries(m.bucket).RatePerSecond(until)
	}
	return m.EstablishedAgg.RatePerSecond(until)
}

// AggregateEstablishedTotal counts the aggregated population's completed
// connections over [from, to).
func (m *Metrics) AggregateEstablishedTotal(from, to time.Duration) float64 {
	if m.EstablishedAgg == nil {
		return 0
	}
	return m.EstablishedAgg.SumRange(from, to)
}

// RecordEstablished accounts one completed handshake, total and per source.
func (m *Metrics) RecordEstablished(at time.Duration, peer tcpkit.PeerKey) {
	m.Established.Add(at, 1)
	if m.aggMatch != nil && m.aggMatch(peer.IP) {
		m.EstablishedAgg.Add(at, 1)
		return
	}
	srcSeries, ok := m.EstablishedBySrc[peer.IP]
	if !ok {
		srcSeries = stats.NewSeries(m.bucket)
		m.EstablishedBySrc[peer.IP] = srcSeries
	}
	srcSeries.Add(at, 1)
}

// EstablishedRateFor sums completed connections per second over sources in
// the given set — the "effective attack rate" of Figs. 11/13/14 when the
// set is the botnet.
func (m *Metrics) EstablishedRateFor(srcs [][4]byte, until time.Duration) []float64 {
	total := stats.NewSeries(m.bucket)
	for _, src := range srcs {
		s, ok := m.EstablishedBySrc[src]
		if !ok {
			continue
		}
		for i, v := range s.Values(until) {
			total.Add(time.Duration(i)*m.bucket, v)
		}
	}
	return total.RatePerSecond(until)
}

// EstablishedTotalFor counts completed connections for the given sources
// over [from, to).
func (m *Metrics) EstablishedTotalFor(srcs [][4]byte, from, to time.Duration) float64 {
	var sum float64
	for _, src := range srcs {
		if s, ok := m.EstablishedBySrc[src]; ok {
			sum += s.SumRange(from, to)
		}
	}
	return sum
}
