package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/defense"
	"github.com/tcppuzzles/tcppuzzles/internal/attacksim"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// TestSendAheadMatchesTapped: every registered attack in macro mode under
// puzzles, with sources solving and not, and the spoofed SYN flood under
// every registered defense, measure byte-identically whether quiet
// sources send ahead of the clock and challenges to unroutable sources
// are sized (no tap), or — with a no-op tap registered before the run —
// every future send takes a timer and every challenge is built. The
// population is large enough that a batch holds hundreds of slots.
// Compared: the NDJSON of every registered experiment's extractor, the
// server's metrics, the server's and the store's link counters, the
// fleet's metrics, and the events one timer per future send and one
// event per packet leg would fire.
func TestSendAheadMatchesTapped(t *testing.T) {
	cell := func(d Defense, a Attack, solve bool) Scenario {
		return Scenario{
			Label:    "send-ahead",
			Duration: 12 * time.Second, AttackStart: 2 * time.Second, AttackStop: 10 * time.Second,
			NumClients: 2, ClientRate: 4, ClientsSolve: true,
			Defense: d, Attack: a, BotsSolve: solve,
			BotCount: NoBotnet, MacroSources: 600, PerBotRate: 5,
			Backlog: 64, AcceptBacklog: 64, Workers: 16, Seed: 3,
		}
	}
	var cells []Scenario
	for _, a := range sweep.KnownAttacks() {
		cells = append(cells, cell(DefensePuzzles, a, false), cell(DefensePuzzles, a, true))
	}
	for _, d := range defense.Infos() {
		if d.Name != DefensePuzzles {
			cells = append(cells, cell(d.Name, AttackSYNFlood, false))
		}
	}
	type outcome struct {
		ndjson             string
		server             []any
		serverUp, serverDn netsim.LinkStats
		storeUp, storeDn   netsim.LinkStats
		unroutable         uint64
		fleet              *attacksim.Metrics
		stats              netsim.EngineStats
	}
	measure := func(sc Scenario, tapped bool) outcome {
		run, err := buildFlood(sc)
		if err != nil {
			t.Fatalf("%s × %s: %v", sc.Defense, sc.Attack, err)
		}
		if tapped {
			run.Net.RegisterTap(func(time.Duration, netsim.TapDir, tcpkit.Segment) {})
		}
		run.Eng.RunToEnd(run.Cfg.Duration)
		var o outcome
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
		o.ndjson = b.String()
		// Every exported field: the population predicate is a func.
		m := reflect.ValueOf(run.Server.Metrics()).Elem()
		for i := range m.NumField() {
			if m.Type().Field(i).IsExported() {
				o.server = append(o.server, m.Field(i).Interface())
			}
		}
		o.serverUp, o.serverDn, _ = run.Net.Stats(run.Server.Addr())
		o.storeUp, o.storeDn = run.Macro.Store().Stats()
		o.unroutable = run.Net.Unroutable()
		o.fleet = run.Macro.Metrics()
		o.stats = run.Eng.Stats()
		return o
	}
	for _, sc := range cells {
		name := string(sc.Defense) + " × " + string(sc.Attack)
		if sc.BotsSolve {
			name += " (solving)"
		}
		got, want := measure(sc, false), measure(sc, true)
		if got.ndjson != want.ndjson {
			t.Errorf("%s: NDJSON differs with sends ahead and sized challenges:\n%s\nwant:\n%s", name, got.ndjson, want.ndjson)
		}
		if !reflect.DeepEqual(got.server, want.server) {
			t.Errorf("%s: server metrics differ:\n%+v\nwant:\n%+v", name, got.server, want.server)
		}
		if got.serverUp != want.serverUp || got.serverDn != want.serverDn || got.storeUp != want.storeUp || got.storeDn != want.storeDn || got.unroutable != want.unroutable {
			t.Errorf("%s: links differ: server %+v %+v, store %+v %+v, %d unroutable; want %+v %+v, %+v %+v, %d",
				name, got.serverUp, got.serverDn, got.storeUp, got.storeDn, got.unroutable,
				want.serverUp, want.serverDn, want.storeUp, want.storeDn, want.unroutable)
		}
		if !reflect.DeepEqual(got.fleet, want.fleet) {
			t.Errorf("%s: fleet metrics differ:\n%+v\nwant:\n%+v", name, got.fleet, want.fleet)
		}
		g, w := got.stats, want.stats
		if g.TimersFired+g.SentAhead != w.TimersFired || g.PacketLegsFired+g.Deferred != w.PacketLegsFired+w.Deferred || w.SentAhead != 0 {
			t.Errorf("%s: %+v untapped, %+v tapped: want the tapped run's timers and packet legs", name, g, w)
		}
		if sc.Attack == AttackSYNFlood && g.SentAhead == 0 {
			t.Errorf("%s: no send went ahead of the clock", name)
		}
	}
}

// TestMacroEngineStatsPinned pins the event counts of TestAllocBudgetMacroCell's
// 10,000-source spoofed SYN flood. While every batch member's SYN
// after the first waited in a kindSend timer, the cell fired 10,209
// timers and 21,620 packet legs; now 9,990 of the SYNs are sent ahead of
// the clock, and the timers fired plus those sends, and the packet legs,
// are what they were.
func TestMacroEngineStatsPinned(t *testing.T) {
	sc := macroFlood100k()
	sc.MacroSources, sc.Seed = 10_000, 1
	run, err := RunFlood(sc)
	if err != nil {
		t.Fatalf("RunFlood: %v", err)
	}
	st := run.Eng.Stats()
	if st.TimersFired+st.SentAhead != 10_209 || st.SentAhead != 9_990 || st.PacketLegsFired != 21_620 {
		t.Errorf("%d timers fired, %d sends ahead, %d packet legs; want 10,209 timers and sends, 9,990 of them ahead, 21,620 packet legs",
			st.TimersFired, st.SentAhead, st.PacketLegsFired)
	}
}
