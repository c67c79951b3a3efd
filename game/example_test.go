package game_test

import (
	"fmt"
	"time"

	"github.com/tcppuzzles/tcppuzzles/game"
)

// The worked example of the paper's §4.4: measured model parameters yield
// the Nash-equilibrium difficulty (k, m) = (2, 17).
func ExampleSelectParams() {
	const (
		wav   = 140630 // hashes a client affords in the 400 ms budget
		alpha = 1.1    // server service parameter from the stress test
	)
	params, err := game.SelectParams(wav, alpha, game.SelectionConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	lstar, _ := game.LStar(wav, alpha)
	fmt.Printf("ℓ* = %.0f hashes\n", lstar)
	fmt.Printf("difficulty = (k=%d, m=%d)\n", params.K, params.M)
	// Output:
	// ℓ* = 66967 hashes
	// difficulty = (k=2, m=17)
}

// How the Nash difficulty moves with client hardware (hashes/s, Fig. 3a
// and Table 1) and server provisioning α.
func ExampleSelectParams_hardware() {
	devices := []struct {
		name string
		rate float64
	}{
		{"raspberry-pi-B", 49617},
		{"xeon-x3210", 330000},
		{"xeon-e3-1260l", 450000},
		{"modern-desktop", 5_000_000},
	}
	fmt.Printf("%-14s %8s  %-9s %-9s %s\n", "client", "w", "α=0.5", "α=1.1", "α=4.0")
	for _, dev := range devices {
		wav := game.WavFromHashRate(dev.rate, 400*time.Millisecond)
		fmt.Printf("%-14s %8.0f", dev.name, wav)
		for _, alpha := range []float64{0.5, 1.1, 4.0} {
			p, err := game.SelectParams(wav, alpha, game.SelectionConfig{})
			if err != nil {
				fmt.Print("  n/a     ")
				continue
			}
			fmt.Printf("  k=%d,m=%-2d", p.K, p.M)
		}
		fmt.Println()
	}
	// Output:
	// client                w  α=0.5     α=1.1     α=4.0
	// raspberry-pi-B    19847  k=3,m=14  k=3,m=13  k=3,m=12
	// xeon-x3210       132000  k=2,m=17  k=2,m=16  k=2,m=15
	// xeon-e3-1260l    180000  k=2,m=17  k=2,m=17  k=2,m=16
	// modern-desktop  2000000  k=2,m=21  k=2,m=20  k=2,m=19
}

// Profiling a device into a client valuation (§4.3).
func ExampleWavFromHashRate() {
	// A machine hashing at 351,575 SHA-256/s affords this much work within
	// the 400 ms handshake budget.
	w := game.WavFromHashRate(351575, 400*time.Millisecond)
	fmt.Printf("w = %.0f hashes\n", w)
	// Output:
	// w = 140630 hashes
}

// Solving the finite-N followers' game numerically.
func ExampleFiniteGame_EquilibriumRates() {
	g := game.FiniteGame{
		Weights: []float64{1000, 2000, 4000}, // heterogeneous valuations
		Mu:      50,                          // server service rate
	}
	rates, err := g.EquilibriumRates(10) // difficulty ℓ = 10 hashes
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, r := range rates {
		fmt.Printf("client %d: x* = %.1f req/s\n", i, r)
	}
	// Output:
	// client 0: x* = 6.6 req/s
	// client 1: x* = 14.1 req/s
	// client 2: x* = 29.2 req/s
}
