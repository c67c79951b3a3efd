// Connection-flood scenario: the Mirai-style attack of the paper's
// introduction. A botnet of compromised machines completes TCP handshakes
// against a server and idles, exhausting its accept queue and worker pool.
// The example runs the same attack against an unprotected server, SYN
// cookies, and TCP client puzzles at the Nash difficulty, and prints what
// each defense salvages.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
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
		BotsSolve:  true, // the bots run patched kernels too

		Seed: 7,
	}

	fmt.Println("connection flood: 8 bots × 250 cps vs 8 clients × 10 req/s")
	fmt.Println()
	fmt.Printf("%-10s %14s %14s %14s %16s\n",
		"defense", "before (Mbps)", "during (Mbps)", "after (Mbps)", "attacker (cps)")
	for _, defense := range []sim.Defense{sim.DefenseNone, sim.DefenseCookies, sim.DefensePuzzles} {
		sc := base
		sc.Defense = defense
		res, err := sim.Run(sc)
		if err != nil {
			return fmt.Errorf("%s: %w", defense, err)
		}
		fmt.Printf("%-10s %14.2f %14.2f %14.2f %16.2f\n",
			defense, res.Metric("client_mbps_before"), res.Metric("client_mbps_during"),
			res.Metric("client_mbps_after"), res.Metric("attacker_established_cps"))
	}
	fmt.Println()
	fmt.Println("Only puzzles preserve client service: the botnet is rate limited")
	fmt.Println("by its own CPUs, and its stale solutions expire before the server")
	fmt.Println("will accept them.")
	return nil
}
