package sim_test

import (
	"fmt"
	"log"
	"os"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sim"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// ExampleRunSweep declares a two-cell factorial design — SYN cookies vs
// puzzles under the same tiny connection flood — and streams each cell's
// structured Result to a CSV sink as the runs land. The output is
// deterministic: every run derives its randomness from its scenario seed,
// and the stream delivers results in grid order at any worker count.
func ExampleRunSweep() {
	grid := sweep.Grid{
		Base: sim.Scenario{
			Duration: 30 * time.Second, AttackStart: 8 * time.Second, AttackStop: 22 * time.Second,
			NumClients: 2, ClientRate: 6, BotCount: 2, PerBotRate: 50,
			Backlog: 64, AcceptBacklog: 64, Workers: 16,
			ClientsSolve: true, BotsSolve: true, Seed: 7,
		},
		Axes: []sweep.Axis{sweep.Defenses(sim.DefenseCookies, sim.DefensePuzzles)},
	}
	csv := sweep.NewCSV(os.Stdout)
	if _, err := sim.RunSweep(grid, sim.WithSinks(csv), sim.WithWorkers(1)); err != nil {
		log.Fatal(err)
	}
	if err := csv.Flush(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// experiment,label,defense,attack,k,m,clients,bot_count,per_bot_rate,seed,metric,value
	// sweep,defense=cookies,cookies,connflood,2,17,2,2,50,7,client_mbps_before,4.85216
	// sweep,defense=cookies,cookies,connflood,2,17,2,2,50,7,client_mbps_during,0.6682
	// sweep,defense=cookies,cookies,connflood,2,17,2,2,50,7,client_mbps_after,1.4182826666666666
	// sweep,defense=cookies,cookies,connflood,2,17,2,2,50,7,attacker_established_cps,11.857142857142858
	// sweep,defense=puzzles,puzzles,connflood,2,17,2,2,50,7,client_mbps_before,4.85216
	// sweep,defense=puzzles,puzzles,connflood,2,17,2,2,50,7,client_mbps_during,1.3364000000000003
	// sweep,defense=puzzles,puzzles,connflood,2,17,2,2,50,7,client_mbps_after,1.3706666666666667
	// sweep,defense=puzzles,puzzles,connflood,2,17,2,2,50,7,attacker_established_cps,4.428571428571429
}

// ExampleRun simulates one small connection flood against puzzles (the
// default defense) and prints its summary metrics: client goodput before, during and after the
// attack, and the attacker's established connections per second.
func ExampleRun() {
	res, err := sim.Run(sim.Scenario{
		Duration: 30 * time.Second, AttackStart: 8 * time.Second, AttackStop: 22 * time.Second,
		NumClients: 2, ClientRate: 6, BotCount: 2, PerBotRate: 50,
		Backlog: 64, AcceptBacklog: 64, Workers: 16,
		ClientsSolve: true, BotsSolve: true, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Metrics {
		fmt.Printf("%s %.4f\n", m.Name, m.Value)
	}
	// Output:
	// client_mbps_before 4.8522
	// client_mbps_during 1.3364
	// client_mbps_after 1.3707
	// attacker_established_cps 4.4286
}

// ExampleRun_connectionFlood is the Mirai-style connection flood of the
// paper's introduction: a botnet completes TCP handshakes against a
// server and idles, exhausting its accept queue and worker pool. The same
// attack runs against an unprotected server, SYN cookies, and TCP client
// puzzles at the Nash difficulty; the bots run patched kernels too, so
// they solve their challenges.
func ExampleRun_connectionFlood() {
	base := sim.Scenario{
		Duration:    180 * time.Second,
		AttackStart: 45 * time.Second,
		AttackStop:  135 * time.Second,

		NumClients:   8,
		ClientRate:   10,
		RequestBytes: 100_000,
		ClientsSolve: true,

		Params:        puzzle.Params{K: 2, M: 17, L: 32},
		Backlog:       1024,
		AcceptBacklog: 1024,

		Attack:     sim.AttackConnFlood,
		BotCount:   8,
		PerBotRate: 250,
		BotsSolve:  true,

		Seed: 7,
	}
	fmt.Println("connection flood: 8 bots × 250 cps vs 8 clients × 10 req/s")
	fmt.Printf("%-10s %14s %14s %14s %16s\n",
		"defense", "before (Mbps)", "during (Mbps)", "after (Mbps)", "attacker (cps)")
	during := map[sim.Defense]float64{}
	attacker := map[sim.Defense]float64{}
	for _, defense := range []sim.Defense{sim.DefenseNone, sim.DefenseCookies, sim.DefensePuzzles} {
		sc := base
		sc.Defense = defense
		res, err := sim.Run(sc)
		if err != nil {
			log.Fatalf("%s: %v", defense, err)
		}
		during[defense] = res.Metric("client_mbps_during")
		attacker[defense] = res.Metric("attacker_established_cps")
		fmt.Printf("%-10s %14.2f %14.2f %14.2f %16.2f\n",
			defense, res.Metric("client_mbps_before"), during[defense],
			res.Metric("client_mbps_after"), attacker[defense])
	}
	fmt.Printf("Puzzles cut the botnet from %.2f to %.2f established cps: its own CPUs rate-limit it.\n",
		attacker[sim.DefenseNone], attacker[sim.DefensePuzzles])
	fmt.Printf("They do not preserve client service: %.2f Mbps during the attack, against %.2f undefended.\n",
		during[sim.DefensePuzzles], during[sim.DefenseNone])
	// Output:
	// connection flood: 8 bots × 250 cps vs 8 clients × 10 req/s
	// defense     before (Mbps)  during (Mbps)   after (Mbps)   attacker (cps)
	// none                 8.21           1.51           8.21           131.92
	// cookies              8.21           1.10           8.21           138.59
	// puzzles              8.21           1.12           8.16            14.77
	// Puzzles cut the botnet from 131.92 to 14.77 established cps: its own CPUs rate-limit it.
	// They do not preserve client service: 1.12 Mbps during the attack, against 1.51 undefended.
}
