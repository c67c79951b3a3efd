package attacksim

import (
	"fmt"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/cpumodel"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/stats"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// BotnetConfig builds a fleet of identical bots.
type BotnetConfig struct {
	// Size is the number of bots.
	Size int
	// BaseAddr is the first bot address; subsequent bots increment the
	// low octets.
	BaseAddr [4]byte
	// ServerAddr and ServerPort locate the victim.
	ServerAddr [4]byte
	ServerPort uint16
	// Attack, PerBotRate, Solves, SimulatedCrypto configure the bots.
	// Bots get the client CPU mix round-robin (cpumodel.ClientCPUs,
	// matching the paper's "similar or better" provisioning) and the
	// default host access link.
	Attack          sweep.Attack
	PerBotRate      float64
	Solves          bool
	SimulatedCrypto bool
	// MaxSolveBacklog selects "smart" bots that discard stale challenges
	// (zero = greedy default; see Config.MaxSolveBacklog).
	MaxSolveBacklog time.Duration
	// StartAt and StopAt bound the attack.
	StartAt, StopAt time.Duration
	// Seed drives per-bot seeds.
	Seed int64
	// MetricBucket is the metric bucket width.
	MetricBucket time.Duration
	// CompactRNG selects the macro-comparable per-bot RNG (see
	// Config.CompactRNG).
	CompactRNG bool
}

// Botnet is a fleet of bots with aggregate metrics.
type Botnet struct {
	Bots []*Bot
}

// NewBotnet builds and attaches the fleet. Each bot schedules against the
// engine of its own home shard (netsim.Network.EngineFor), so a sharded
// network spreads the fleet across cores; on a single-shard network every
// bot lands on the one engine, as before. Per-bot seeds derive only from
// cfg.Seed and the bot index — never from shard layout — so the fleet's
// behaviour is identical at every shard count.
func NewBotnet(network *netsim.Network, cfg BotnetConfig) (*Botnet, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("attacksim: botnet size %d", cfg.Size)
	}
	devices := cpumodel.ClientCPUs()
	link := netsim.DefaultHostLink()
	bn := &Botnet{Bots: make([]*Bot, 0, cfg.Size)}
	for i := 0; i < cfg.Size; i++ {
		addr := netsim.SourceAddr(cfg.BaseAddr, i)
		bot, err := New(network.EngineFor(addr), network, link, Config{
			Addr:            addr,
			ServerAddr:      cfg.ServerAddr,
			ServerPort:      cfg.ServerPort,
			Attack:          cfg.Attack,
			Rate:            cfg.PerBotRate,
			StartAt:         cfg.StartAt,
			StopAt:          cfg.StopAt,
			Solves:          cfg.Solves,
			SimulatedCrypto: cfg.SimulatedCrypto,
			MaxSolveBacklog: cfg.MaxSolveBacklog,
			Device:          devices[i%len(devices)],
			Seed:            cfg.Seed + int64(i)*101,
			MetricBucket:    cfg.MetricBucket,
			CompactRNG:      cfg.CompactRNG,
		})
		if err != nil {
			return nil, err
		}
		bn.Bots = append(bn.Bots, bot)
	}
	return bn, nil
}

// Srcs returns the bots' real source addresses (for per-source server
// metrics).
func (bn *Botnet) Srcs() [][4]byte {
	out := make([][4]byte, len(bn.Bots))
	for i, b := range bn.Bots {
		out[i] = b.cfg.Addr
	}
	return out
}

// SentRate aggregates the measured (post-CPU-limiting) attack packet rate
// across the fleet, per second.
func (bn *Botnet) SentRate(until time.Duration) []float64 {
	if len(bn.Bots) == 0 {
		return nil
	}
	agg := stats.NewSeries(bn.Bots[0].cfg.MetricBucket)
	for _, b := range bn.Bots {
		for i, v := range b.metrics.Sent.Values(until) {
			agg.Add(time.Duration(i)*b.cfg.MetricBucket, v)
		}
	}
	return agg.RatePerSecond(until)
}

// TotalSent sums attack packets over [from, to).
func (bn *Botnet) TotalSent(from, to time.Duration) float64 {
	var sum float64
	for _, b := range bn.Bots {
		sum += b.metrics.Sent.SumRange(from, to)
	}
	return sum
}

// MeanCPUUtilisation averages bot CPU utilisation per bucket.
func (bn *Botnet) MeanCPUUtilisation(until time.Duration) []float64 {
	if len(bn.Bots) == 0 {
		return nil
	}
	var out []float64
	for _, b := range bn.Bots {
		u := b.cpu.Utilisation(until)
		if out == nil {
			out = make([]float64, len(u))
		}
		for i, v := range u {
			out[i] += v / float64(len(bn.Bots))
		}
	}
	return out
}
