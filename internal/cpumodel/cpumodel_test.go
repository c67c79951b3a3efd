package cpumodel

import (
	"math"
	"testing"
	"time"

	"github.com/tcppuzzles/tcppuzzles/game"
)

func TestFleetWavMatchesPaper(t *testing.T) {
	var rates []float64
	for _, d := range ClientCPUs() {
		rates = append(rates, d.HashRate)
	}
	wav, err := game.WavAverage(rates, game.DefaultHandshakeBudget)
	if err != nil {
		t.Fatalf("WavAverage: %v", err)
	}
	// The paper measures w_av = 140630; the calibrated profiles must land
	// within 1%.
	if math.Abs(wav-140630)/140630 > 0.01 {
		t.Errorf("fleet w_av = %v, want ≈ 140630", wav)
	}
}

// Table 1 prints each client's hashes within the budget (Device.HashesIn),
// and the Nash cell averages game.WavFromHashRate over the same fleet: the
// two must be one valuation, so w_av is the mean of the printed column.
func TestFleetWavIsMeanOfHashesIn(t *testing.T) {
	var rates []float64
	var sum float64
	for _, d := range ClientCPUs() {
		rates = append(rates, d.HashRate)
		in := d.HashesIn(game.DefaultHandshakeBudget)
		if w := game.WavFromHashRate(d.HashRate, game.DefaultHandshakeBudget); w != in {
			t.Errorf("%s: HashesIn = %v, WavFromHashRate = %v", d.Name, in, w)
		}
		sum += in
	}
	wav, err := game.WavAverage(rates, game.DefaultHandshakeBudget)
	if err != nil {
		t.Fatalf("WavAverage: %v", err)
	}
	if want := sum / float64(len(rates)); math.Abs(wav-want) > 1e-9*want {
		t.Errorf("WavAverage = %v, mean of HashesIn = %v", wav, want)
	}
}

func TestTable1Profiles(t *testing.T) {
	wantIn400 := map[string]float64{"D1": 19901, "D2": 26563, "D3": 27987, "D4": 29732}
	for _, d := range IoTDevices() {
		want := wantIn400[d.Name]
		// The paper's own columns disagree by a few percent (rate·0.4 vs
		// measured); accept 8%.
		if got := d.HashesIn(game.DefaultHandshakeBudget); math.Abs(got-want)/want > 0.08 {
			t.Errorf("%s hashes in 400ms = %v, want ≈ %v", d.Name, got, want)
		}
	}
}

func TestDeviceTimeFor(t *testing.T) {
	d := Device{Name: "x", HashRate: 1000}
	if got := d.TimeFor(500); got != 500*time.Millisecond {
		t.Errorf("TimeFor(500) = %v, want 500ms", got)
	}
	if got := d.HashesIn(2 * time.Second); got != 2000 {
		t.Errorf("HashesIn(2s) = %v, want 2000", got)
	}
	zero := Device{}
	if got := zero.TimeFor(1); got < time.Duration(1<<61) {
		t.Errorf("zero-rate TimeFor = %v, want effectively infinite", got)
	}
}

func TestCPUChargeSerialises(t *testing.T) {
	c := NewCPU(Device{Name: "x", HashRate: 1000}, time.Second)
	d1 := c.Charge(0, 500)                    // finishes at 0.5s
	d2 := c.Charge(100*time.Millisecond, 500) // queues, finishes at 1.0s
	if d1 != 500*time.Millisecond {
		t.Errorf("first job done at %v, want 500ms", d1)
	}
	if d2 != time.Second {
		t.Errorf("second job done at %v, want 1s", d2)
	}
	if got := c.Backlog(200 * time.Millisecond); got != 800*time.Millisecond {
		t.Errorf("Backlog = %v, want 800ms", got)
	}
	if got := c.Backlog(2 * time.Second); got != 0 {
		t.Errorf("Backlog after idle = %v, want 0", got)
	}
}

func TestCPUUtilisation(t *testing.T) {
	c := NewCPU(Device{Name: "x", HashRate: 1000}, time.Second)
	c.Charge(0, 500) // busy 0–0.5s → 50% in bucket 0
	u := c.Utilisation(2 * time.Second)
	if math.Abs(u[0]-50) > 1e-6 {
		t.Errorf("bucket 0 utilisation = %v, want 50", u[0])
	}
	if u[1] != 0 {
		t.Errorf("bucket 1 utilisation = %v, want 0", u[1])
	}
	// Saturating work caps at 100%.
	c2 := NewCPU(Device{Name: "y", HashRate: 1000}, time.Second)
	c2.Charge(0, 5000)
	for i, v := range c2.Utilisation(3 * time.Second) {
		if v > 100 {
			t.Errorf("bucket %d utilisation = %v > 100", i, v)
		}
	}
}

func TestHashCurveMonotone(t *testing.T) {
	curve := HashCurve(CPU1, 100*time.Millisecond, time.Second)
	if len(curve) != 10 {
		t.Fatalf("curve has %d points, want 10", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] <= curve[i-1] {
			t.Errorf("curve not increasing at %d: %v ≤ %v", i, curve[i], curve[i-1])
		}
	}
	// Endpoint equals rate × 1s.
	if math.Abs(curve[9]-CPU1.HashRate) > 1e-6 {
		t.Errorf("curve end = %v, want %v", curve[9], CPU1.HashRate)
	}
}

func TestServerVerificationHeadroom(t *testing.T) {
	// §7: a server at 10.8 M hashes/s needs an attacker to send ~5.4 M
	// packets/s (2 hashes per verification at k=2) to saturate CPU.
	perVerify := 2.0
	pktRate := Server.HashRate / perVerify
	if math.Abs(pktRate-5_400_000) > 1 {
		t.Errorf("saturating packet rate = %v, want 5.4e6", pktRate)
	}
}
