package experiments

import (
	"fmt"

	"github.com/tcppuzzles/tcppuzzles/internal/attacksim"
	"github.com/tcppuzzles/tcppuzzles/internal/clientsim"
	"github.com/tcppuzzles/tcppuzzles/internal/cpumodel"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/serversim"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// FloodRun is a completed flood scenario with its measurement state.
type FloodRun struct {
	Cfg     Scenario
	Eng     *netsim.Engine
	Net     *netsim.Network
	Server  *serversim.Server
	Clients []*clientsim.Client
	// Macro is the attacking population; nil when the scenario runs
	// without one.
	Macro *attacksim.MacroFleet
	// Botnet is always nil: Macro holds every population.
	//
	// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
	Botnet *attacksim.MacroFleet
}

// RunFlood builds and executes one flood scenario to completion. The run
// is fully self-contained — engine, network and every RNG are derived
// from the scenario's seed — so independent scenarios may execute
// concurrently (see RunPlan) with bit-for-bit identical results.
// Every node of the deployment runs on one event engine.
func RunFlood(sc Scenario) (*FloodRun, error) {
	run, err := buildFlood(sc)
	if err != nil {
		return nil, err
	}
	run.Eng.RunToEnd(run.Cfg.Duration)
	return run, nil
}

// buildFlood builds one flood scenario's deployment, ready to run.
func buildFlood(sc Scenario) (*FloodRun, error) {
	sc = sc.Defaults()
	eng := netsim.NewEngine()
	network := netsim.NewNetwork(eng)

	srv, err := serversim.New(eng, network, netsim.DefaultServerLink(), serversim.Config{
		Addr:            netsim.Addr{10, 0, 0, 1},
		Defense:         sc.Defense,
		PuzzleParams:    sc.Params,
		AlwaysChallenge: sc.AlwaysChallenge,
		SimulatedCrypto: true,
		Workers:         sc.Workers,
		Backlog:         sc.Backlog,
		AcceptBacklog:   sc.AcceptBacklog,
		Seed:            sc.Seed,
		MetricBucket:    sc.Bucket,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: server: %w", err)
	}

	run := &FloodRun{Cfg: sc, Eng: eng, Net: network, Server: srv}
	devices := cpumodel.ClientCPUs()
	for i := 0; i < sc.NumClients; i++ {
		addr := netsim.Addr{10, 1, byte(i / 250), byte(1 + i%250)}
		client, err := clientsim.New(eng, network, netsim.DefaultHostLink(), clientsim.Config{
			Addr:            addr,
			ServerAddr:      srv.Addr(),
			Rate:            sc.ClientRate,
			StopAt:          sc.Duration,
			RequestBytes:    sc.RequestBytes,
			Solves:          sc.ClientsSolve,
			SimulatedCrypto: true,
			Device:          devices[i%len(devices)],
			Seed:            sc.Seed + int64(i)*17,
			MetricBucket:    sc.Bucket,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: client %d: %w", i, err)
		}
		run.Clients = append(run.Clients, client)
	}

	sources := sc.BotCount
	if sc.MacroSources > 0 {
		sources = sc.MacroSources
	}
	if sources > 0 && sc.PerBotRate > 0 {
		fleet, err := attacksim.NewMacroFleet(network, attacksim.MacroConfig{
			Sources:         sources,
			BaseAddr:        [4]byte{10, 2, 0, 1},
			ServerAddr:      srv.Addr(),
			Attack:          sc.Attack,
			PerSourceRate:   sc.PerBotRate,
			Solves:          sc.BotsSolve,
			SimulatedCrypto: true,
			MaxSolveBacklog: sc.BotMaxSolveBacklog,
			StartAt:         sc.AttackStart,
			StopAt:          sc.AttackStop,
			Seed:            sc.Seed + 1000,
			MetricBucket:    sc.Bucket,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: botnet: %w", err)
		}
		run.Macro = fleet
		// Server-side attacker accounting stays O(1) in population size:
		// establishments from the population fold into one series.
		srv.Metrics().AggregateSrcs(fleet.Contains)
	}
	return run, nil
}

// clientMean averages a per-client series across the clients, bucket by
// bucket.
func (r *FloodRun) clientMean(series func(*clientsim.Client) []float64) []float64 {
	var out []float64
	for _, c := range r.Clients {
		s := series(c)
		if out == nil {
			out = make([]float64, len(s))
		}
		for i, v := range s {
			out[i] += v / float64(len(r.Clients))
		}
	}
	return out
}

// ClientThroughputMbps returns the mean per-client goodput in Mbps per
// bucket.
func (r *FloodRun) ClientThroughputMbps() []float64 {
	return r.clientMean(func(c *clientsim.Client) []float64 { return c.Metrics().BytesIn.Mbps(r.Cfg.Duration) })
}

// ServerThroughputMbps returns the server's outgoing throughput in Mbps per
// bucket.
func (r *FloodRun) ServerThroughputMbps() []float64 {
	return r.Server.Metrics().BytesOut.Mbps(r.Cfg.Duration)
}

// ServerCPU returns per-bucket server CPU utilisation (%).
func (r *FloodRun) ServerCPU() []float64 {
	return r.Server.CPU().Utilisation(r.Cfg.Duration)
}

// ClientCPU returns the mean per-bucket client CPU utilisation (%).
func (r *FloodRun) ClientCPU() []float64 {
	return r.clientMean(func(c *clientsim.Client) []float64 { return c.CPU().Utilisation(r.Cfg.Duration) })
}

// AttackerCPU returns the mean per-bucket botnet CPU utilisation (%).
func (r *FloodRun) AttackerCPU() []float64 {
	if r.Macro == nil {
		return nil
	}
	return r.Macro.MeanCPUUtilisation(r.Cfg.Duration)
}

// QueueSizes returns per-second listen and accept queue occupancy.
func (r *FloodRun) QueueSizes() (listen, accept []float64) {
	m := r.Server.Metrics()
	return m.ListenLen.Sampled(r.Cfg.Duration), m.AcceptLen.Sampled(r.Cfg.Duration)
}

// AttackerEstablishedRate returns the botnet's completed connections per
// second as seen by the server (the effective attack rate).
func (r *FloodRun) AttackerEstablishedRate() []float64 {
	if r.Macro == nil {
		return nil
	}
	return r.Server.Metrics().AggregateEstablishedRate(r.Cfg.Duration)
}

// MeasuredAttackRate returns the botnet's sent packets per second (after
// CPU limiting).
func (r *FloodRun) MeasuredAttackRate() []float64 {
	if r.Macro == nil {
		return nil
	}
	return r.Macro.SentRate(r.Cfg.Duration)
}

// AttackWindowMean averages a per-bucket series over the attack interval.
func (r *FloodRun) AttackWindowMean(series []float64) float64 {
	return windowMean(series, int(r.Cfg.AttackStart/r.Cfg.Bucket), int(r.Cfg.AttackStop/r.Cfg.Bucket))
}

// windowMean averages series[lo:hi], with hi clipped to the series; an
// empty window averages to 0.
func windowMean(series []float64, lo, hi int) float64 {
	hi = min(hi, len(series))
	if lo >= hi {
		return 0
	}
	var sum float64
	for _, v := range series[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// ClientThroughputSamplesDuringAttack returns every per-client per-bucket
// throughput sample (Mbps) inside the attack window — the population behind
// the Fig. 12 box plots.
func (r *FloodRun) ClientThroughputSamplesDuringAttack() []float64 {
	lo := int(r.Cfg.AttackStart / r.Cfg.Bucket)
	hi := int(r.Cfg.AttackStop / r.Cfg.Bucket)
	var out []float64
	for _, c := range r.Clients {
		series := c.Metrics().BytesIn.Mbps(r.Cfg.Duration)
		if hi > len(series) {
			hi = len(series)
		}
		out = append(out, series[lo:hi]...)
	}
	return out
}

type phase int

const (
	phaseBefore phase = iota + 1
	phaseDuring
	phaseAfter
)

// phaseMean averages a series over one phase of the attack timeline,
// trimming the edges by a few buckets to avoid transition effects.
func phaseMean(run *FloodRun, series []float64, ph phase) float64 {
	bucket := run.Cfg.Bucket
	var lo, hi int
	switch ph {
	case phaseBefore:
		lo, hi = 2, int(run.Cfg.AttackStart/bucket)-1
	case phaseDuring:
		lo, hi = int(run.Cfg.AttackStart/bucket)+5, int(run.Cfg.AttackStop/bucket)-1
	case phaseAfter:
		// Skip the recovery window (half-open expiry ≈ 30 s in the paper);
		// scale it with the phase length for reduced runs.
		phaseLen := int((run.Cfg.Duration - run.Cfg.AttackStop) / bucket)
		lo = int(run.Cfg.AttackStop/bucket) + phaseLen/2
		hi = int(run.Cfg.Duration/bucket) - 1
	}
	return windowMean(series, lo, hi)
}

// phaseMetrics averages a series over each phase of the attack timeline,
// as name_before, name_during and name_after.
func phaseMetrics(run *FloodRun, name string, series []float64) []sweep.Metric {
	return []sweep.Metric{
		{Name: name + "_before", Value: phaseMean(run, series, phaseBefore)},
		{Name: name + "_during", Value: phaseMean(run, series, phaseDuring)},
		{Name: name + "_after", Value: phaseMean(run, series, phaseAfter)},
	}
}

// duringMetrics measures the attack's success: the attacker's completed
// connections/s and client goodput, averaged over the attack.
func duringMetrics(run *FloodRun) []sweep.Metric {
	return []sweep.Metric{
		{Name: "attacker_established_during", Value: phaseMean(run, run.AttackerEstablishedRate(), phaseDuring)},
		{Name: "client_mbps_during", Value: phaseMean(run, run.ClientThroughputMbps(), phaseDuring)},
	}
}

// difficultyTrace returns the server's deployed difficulty m per bucket.
// Before the first adjustment the gauge reads zero; the baseline m
// backfills it for a readable trace.
func difficultyTrace(run *FloodRun) []float64 {
	trace := run.Server.Metrics().DifficultyM.Sampled(run.Cfg.Duration)
	for i, v := range trace {
		if v == 0 {
			trace[i] = float64(run.Cfg.Params.M)
		}
	}
	return trace
}
