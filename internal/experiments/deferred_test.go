package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/defense"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestDeferredDeliveryMatchesTapped: every registered defense under a SYN
// flood and a connection flood at tiny scale, and the benchmark grid's
// cell shape, measure byte-identically whether the clients' response
// trains are deferred (see netsim.DeferNode) or — with a no-op tap
// registered — delivered one event per segment. Every registered
// experiment's extractor reads each run, and the NDJSON of all of them
// is compared.
func TestDeferredDeliveryMatchesTapped(t *testing.T) {
	var cells []Scenario
	for _, d := range defense.Infos() {
		for _, a := range []Attack{AttackSYNFlood, AttackConnFlood} {
			cells = append(cells, TinyScale().Apply(Scenario{Label: "deferred", Defense: d.Name, Attack: a, ClientsSolve: true, BotsSolve: true}))
		}
	}
	for _, d := range []Defense{DefenseNone, DefenseCookies, DefensePuzzles} {
		cells = append(cells, Scenario{
			Label:    "deferred-grid",
			Duration: 20 * time.Second, AttackStart: 5 * time.Second, AttackStop: 15 * time.Second,
			NumClients: 8, ClientRate: 10, BotCount: 6, PerBotRate: 100,
			Backlog: 256, AcceptBacklog: 256, Workers: 48,
			ClientsSolve: true, BotsSolve: true,
			Defense: d, Attack: AttackConnFlood, Params: puzzle.Params{M: 17}, Seed: 1,
		})
	}
	ndjson := func(sc Scenario, tapped bool) string {
		run, err := buildFlood(sc)
		if err != nil {
			t.Fatalf("%s × %s: %v", sc.Defense, sc.Attack, err)
		}
		if tapped {
			run.Net.RegisterTap(func(time.Duration, netsim.TapDir, tcpkit.Segment) {})
		}
		run.Eng.RunToEnd(run.Cfg.Duration)
		if deferred := run.Eng.Stats().Deferred; (deferred == 0) != tapped {
			t.Errorf("%s × %s, tapped %v: %d train legs deferred", sc.Defense, sc.Attack, tapped, deferred)
		}
		var b strings.Builder
		sink := sweep.NewNDJSON(&b)
		for _, e := range Experiments {
			if e.Flood == nil {
				continue
			}
			metrics, series := e.Flood(run)
			if err := sink.Write(sweep.Result{Experiment: e.ID, Scenario: run.Cfg, Metrics: metrics, Series: series}); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	for _, sc := range cells {
		if got, want := ndjson(sc, false), ndjson(sc, true); got != want {
			t.Errorf("%s × %s (%s): NDJSON differs with deferred delivery:\n%s\nwant:\n%s", sc.Defense, sc.Attack, sc.Label, got, want)
		}
	}
}
