package sim_test

import (
	"fmt"
	"log"
	"os"
	"time"

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
