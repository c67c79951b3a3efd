package attacksim

import (
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// Config describes one attacking host.
//
// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
type Config struct {
	Addr, ServerAddr [4]byte
	Attack           sweep.Attack
	Rate             float64
	Solves           bool
	SimulatedCrypto  bool
	Seed             int64
}

// New attaches a one-source fleet configured by cfg to network, which
// must run on eng.
//
// Deprecated: kept only so bench/ compiles; the next benchmark revision removes it.
func New(eng *netsim.Engine, network *netsim.Network, link netsim.LinkConfig, cfg Config) (*MacroFleet, error) {
	return NewMacroFleet(network, MacroConfig{
		Sources: 1, BaseAddr: cfg.Addr, ServerAddr: cfg.ServerAddr,
		Attack: cfg.Attack, PerSourceRate: cfg.Rate,
		Solves: cfg.Solves, SimulatedCrypto: cfg.SimulatedCrypto,
		Link: link, Seed: cfg.Seed,
	})
}
