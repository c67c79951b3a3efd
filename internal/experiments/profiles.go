package experiments

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/tcppuzzles/tcppuzzles/game"
	"github.com/tcppuzzles/tcppuzzles/internal/clientsim"
	"github.com/tcppuzzles/tcppuzzles/internal/cpumodel"
	"github.com/tcppuzzles/tcppuzzles/internal/mm1"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/serversim"
	"github.com/tcppuzzles/tcppuzzles/internal/stats"
	"github.com/tcppuzzles/tcppuzzles/membound"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

// The experiments below profile the client devices, the server and the
// handshake without a flood. All but Fig. 6 evaluate the device and
// server models directly, with no simulation; only Fig. 6 reads the scale,
// to pick its difficulty axes.

// nashParams is the Nash difficulty of the worked example.
var nashParams = puzzle.Params{K: 2, M: 17, L: 32}

// deviceGrid declares one cell per device, labelled with its name; the
// cell index selects the device.
func deviceGrid(name string, devices []cpumodel.Device) sweep.Grid {
	points := make([]sweep.Point, len(devices))
	for i, dev := range devices {
		points[i] = sweep.Point{Label: dev.Name}
	}
	return sweep.Grid{Axes: []sweep.Axis{sweep.Variants(name, points...)}}
}

// msDuration converts a millisecond metric back to a duration.
func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// fig3aStep is the sampling step of Fig. 3a's cumulative hash curves,
// profiled over one second.
const fig3aStep = 100 * time.Millisecond

// fig3aGrid declares one cell per profiled client CPU.
func fig3aGrid(Scale) sweep.Grid { return deviceGrid("cpu", cpumodel.ClientCPUs()) }

func fig3aCell(i int, _ Scenario) ([]sweep.Metric, []sweep.Series, error) {
	dev := cpumodel.ClientCPUs()[i]
	return []sweep.Metric{
			{Name: "hash_rate", Value: dev.HashRate},
			{Name: "hashes_in_400ms", Value: dev.HashesIn(game.DefaultHandshakeBudget)},
		},
		[]sweep.Series{{Name: "cumulative_hashes", Values: cpumodel.HashCurve(dev, fig3aStep, time.Second)}}, nil
}

// fig3aTable renders the client performance profile of Fig. 3a:
// cumulative hashes over time per CPU, and the fleet w_av — the mean
// hashes a client computes in the 400 ms budget (game.WavAverage).
func fig3aTable(results []sweep.Result) sweep.Table {
	t := sweep.Table{
		Title:  "Fig 3a — client hash profiles (cumulative hashes)",
		Header: []string{"t(ms)"},
	}
	rates := make([]float64, len(results))
	for i, r := range results {
		t.Header = append(t.Header, r.Scenario.Label)
		rates[i] = r.Metric("hash_rate")
	}
	wav, err := game.WavAverage(rates, game.DefaultHandshakeBudget)
	if err != nil {
		panic(err) // fig3aCell reports the positive rates of ClientCPUs
	}
	for i := range results[0].SeriesValues("cumulative_hashes") {
		row := []string{f1(float64((time.Duration(i+1) * fig3aStep).Milliseconds()))}
		for _, r := range results {
			row = append(row, f1(r.SeriesValues("cumulative_hashes")[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{"w_av", f1(wav), "", ""})
	return t
}

// Fig. 3a and §4.4: the three client CPUs give the paper's w_av.
var fig3aClaims = []Claim{{"w_av", func(_ Scale, rs []sweep.Result) error {
	rates := make([]float64, len(rs))
	for i, r := range rs {
		rates[i] = r.Metric("hash_rate")
	}
	wav, err := game.WavAverage(rates, game.DefaultHandshakeBudget)
	if err != nil {
		return err
	}
	return want(len(rs) == 3 && math.Abs(wav-140630)/140630 <= 0.01,
		"w_av %.1f over %d CPUs, want 140,630 ± 1 %% over 3", wav, len(rs))
}}}

// fig3bLevels is the ab concurrency sweep of Fig. 3b.
var fig3bLevels = []int{1, 5, 10, 25, 50, 100, 200, 400, 600, 800, 1000}

// fig3bGrid declares one cell per stress-test concurrency level.
func fig3bGrid(Scale) sweep.Grid {
	points := make([]sweep.Point, len(fig3bLevels))
	for i, level := range fig3bLevels {
		points[i] = sweep.Point{Label: fmt.Sprintf("c=%d", level)}
	}
	return sweep.Grid{Axes: []sweep.Axis{sweep.Variants("concurrent", points...)}}
}

// fig3bCell stress-tests the modelled Apache deployment at one
// concurrency level (the ab sweep) and derives the service parameter α.
func fig3bCell(i int, _ Scenario) ([]sweep.Metric, []sweep.Series, error) {
	p := mm1.PaperStress().Sweep(fig3bLevels[i : i+1])[0]
	a, err := game.Alpha(p)
	if err != nil {
		return nil, nil, err
	}
	return []sweep.Metric{
		{Name: "concurrent", Value: float64(p.Concurrent)},
		{Name: "service_rate", Value: p.ServiceRate},
		{Name: "alpha", Value: a},
	}, nil, nil
}

// fig3bTable renders the server profile of Fig. 3b. The converged α is
// the highest concurrency level's (game.AlphaFromStress).
func fig3bTable(results []sweep.Result) sweep.Table {
	t := perCell("Fig 3b — server profile (service rate µ and parameter α)",
		[]string{"concurrent", "rate(req/s)", "alpha"},
		func(r sweep.Result) []string {
			return []string{f1(r.Metric("concurrent")), f1(r.Metric("service_rate")), f3(r.Metric("alpha"))}
		})(results)
	t.Rows = append(t.Rows, []string{"converged α", f3(results[len(results)-1].Metric("alpha")), ""})
	return t
}

// Fig. 3b: µ plateaus at 1,100 requests/s and α converges to 1.1.
var fig3bClaims = []Claim{
	within("alpha-converges", "c=1000", "alpha", 1.1-0.02, 1.1+0.02),
	within("service-rate-plateau", "c=1000", "service_rate", 1100-1, 1100+1),
}

// fig6ConnectionGap is the spacing between Fig. 6's sequential
// handshakes; each cell's Scenario.Duration encodes its connection count
// as (connections + 2) gaps, so the canonical scenario fully determines
// the cell (and therefore its cache hash).
const fig6ConnectionGap = 5 * time.Second

// fig6Grid declares Experiment 1's (k, m) difficulty product: the
// paper's {1,2,3,4} × {4,10,16,20} with 300 handshakes per cell, or
// {1,2,4} × {4,10,16} with 100 at reduced scales. A cell is one
// always-challenged client's sequential handshakes, and no flood.
func fig6Grid(s Scale) sweep.Grid {
	ks, ms, connections := []uint8{1, 2, 3, 4}, []uint8{4, 10, 16, 20}, 300
	if reduced(s) {
		ks, ms, connections = []uint8{1, 2, 4}, []uint8{4, 10, 16}, 100
	}
	return sweep.Grid{
		Base: Scenario{
			Duration:        time.Duration(connections+2) * fig6ConnectionGap,
			NumClients:      1,
			RequestBytes:    1000,
			ClientsSolve:    true,
			Defense:         DefensePuzzles,
			AlwaysChallenge: true,
			Attack:          AttackConnFlood, // canonical default; no botnet runs
			BotCount:        NoBotnet,
			Seed:            1,
		},
		Axes: []sweep.Axis{sweep.Ks(ks...), sweep.Ms(ms...)},
	}
}

// fig6Connections is the number of handshakes a Fig. 6 cell performs.
func fig6Connections(sc Scenario) int { return int(sc.Duration/fig6ConnectionGap) - 2 }

// fig6LAN is Fig. 6's link: negligible propagation so solve time
// dominates, as in the paper's testbed measurements.
var fig6LAN = netsim.LinkConfig{RateBps: 1e9, Latency: 10 * time.Microsecond, MaxBacklog: time.Second}

// fig6Cell measures handshake completion times with challenges forced
// on: sequential handshakes on a LAN, no attack, reporting the
// connection-time distribution in microseconds (the paper's axis).
// Connection time includes the solve time on the modelled client CPU
// plus the LAN round trips, so the paper's structure — exponential growth
// in m, linear growth in k — is preserved.
func fig6Cell(_ int, sc Scenario) ([]sweep.Metric, []sweep.Series, error) {
	params := sc.Params
	connections := fig6Connections(sc)
	eng := netsim.NewEngine()
	network := netsim.NewNetwork(eng)
	srv, err := serversim.New(eng, network, fig6LAN, serversim.Config{
		Addr:            [4]byte{10, 0, 0, 1},
		Defense:         DefensePuzzles,
		AlwaysChallenge: true,
		PuzzleParams:    params,
		Seed:            sc.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	client, err := clientsim.New(eng, network, fig6LAN, clientsim.Config{
		Addr:            [4]byte{10, 1, 0, 1},
		ServerAddr:      srv.Addr(),
		Solves:          true,
		RequestBytes:    sc.RequestBytes,
		Device:          cpumodel.CPU1,
		MaxSolveBacklog: time.Hour, // sequential connects; never abandon
		Seed:            sc.Seed + int64(params.K)*100 + int64(params.M),
	})
	if err != nil {
		return nil, nil, err
	}
	// Issue connections sequentially so solves do not queue behind each
	// other (the paper measures isolated connection times).
	var connect func()
	remaining := connections
	connect = func() {
		if remaining == 0 {
			return
		}
		remaining--
		client.Connect()
		eng.Schedule(fig6ConnectionGap, connect)
	}
	eng.ScheduleAt(0, connect)
	eng.RunToEnd(sc.Duration)

	times := client.Metrics().ConnTimes
	micros := make([]float64, len(times))
	for i, s := range times {
		micros[i] = s * 1e6
	}
	cdf := stats.NewCDF(micros)
	return []sweep.Metric{
		{Name: "conn_time_mean_us", Value: cdf.Mean()},
		{Name: "conn_time_p10_us", Value: cdf.Quantile(0.10)},
		{Name: "conn_time_p50_us", Value: cdf.Quantile(0.50)},
		{Name: "conn_time_p90_us", Value: cdf.Quantile(0.90)},
		{Name: "samples", Value: float64(cdf.Len())},
	}, nil, nil
}

// fig6Table renders mean and quantiles per difficulty.
var fig6Table = perCell("Fig 6 — connection time vs difficulty (µs)",
	[]string{"k", "m", "mean", "p10", "p50", "p90", "n"},
	func(r sweep.Result) []string {
		row := append([]string{fmt.Sprintf("%d", r.Scenario.Params.K), fmt.Sprintf("%d", r.Scenario.Params.M)},
			metricCells(r, f1, "conn_time_mean_us", "conn_time_p10_us", "conn_time_p50_us", "conn_time_p90_us")...)
		return append(row, fmt.Sprintf("%d", int(r.Metric("samples"))))
	})

// Fig. 6: connection time grows exponentially in m and linearly in k.
var fig6Claims = []Claim{
	{"exponential-in-m", func(_ Scale, rs []sweep.Result) error {
		m4, m10, m16 := fig6Mean(rs, 1, 4), fig6Mean(rs, 1, 10), fig6Mean(rs, 1, 16)
		return want(m4 < m10 && m10 < m16 && m16 >= 8*m10,
			"k=1 means %.1f, %.1f, %.1f µs at m = 4, 10, 16; want increasing, and m=16 ≥ 8 × m=10", m4, m10, m16)
	}},
	{"linear-in-k", func(_ Scale, rs []sweep.Result) error {
		ratio := fig6Mean(rs, 2, 16) / fig6Mean(rs, 1, 16)
		return want(ratio >= 1.4 && ratio <= 3, "mean at k=2 over k=1, m=16: %.2f, want 1.4–3", ratio)
	}},
	{"solve-law", fig6SolveLaw},
}

// fig6Mean is the mean connection time of Fig. 6's (k, m) cell in µs.
func fig6Mean(rs []sweep.Result, k, m int) float64 {
	return cellMetric(rs, fmt.Sprintf("k=%d/m=%d", k, m), "conn_time_mean_us")
}

// fig6SolveLaw claims every Fig. 6 row completes all its handshakes, and
// its mean lies within 4 standard errors (a 6·10⁻⁵ chance under the law)
// of the mean solve, k·2^m hashes at CPU1's rate, plus the round trip of
// the SYN and the challenge, two LAN links each way; serialisation, under
// 2 µs, stays inside the band. A solve is k geometric draws with success
// probability 2^−m: its standard deviation is √(k(1−2^−m))·2^m hashes.
func fig6SolveLaw(_ Scale, rs []sweep.Result) error {
	rtt, usPerHash := float64(4*fig6LAN.Latency/time.Microsecond), 1e6/cpumodel.CPU1.HashRate
	var errs []error
	for _, r := range rs {
		n, k, perSolution := fig6Connections(r.Scenario), float64(r.Scenario.Params.K), math.Exp2(float64(r.Scenario.Params.M))
		solve, sd := k*perSolution*usPerHash, math.Sqrt(k*(1-1/perSolution))*perSolution*usPerHash
		samples, mean := r.Metric("samples"), r.Metric("conn_time_mean_us")
		z := (mean - solve - rtt) / (sd / math.Sqrt(float64(n)))
		errs = append(errs, want(samples == float64(n) && math.Abs(z) <= 4,
			"%s: %.0f of %d handshakes, mean %.1f µs = %.3g × the solve term %.1f µs, %+.1f SE from solve + round trip; want all, within ±4 SE",
			r.Scenario.Label, samples, n, mean, mean/solve, solve, z))
	}
	return errors.Join(errs...)
}

// table1Grid declares one cell per embedded device of the paper's
// Table 1.
func table1Grid(Scale) sweep.Grid { return deviceGrid("device", cpumodel.IoTDevices()) }

// table1Cell profiles one Raspberry Pi and derives its solve time and
// maximum solved-connection rate at the Nash difficulty — the analysis of
// Experiment 6 (IoT devices can connect but cannot flood).
func table1Cell(i int, _ Scenario) ([]sweep.Metric, []sweep.Series, error) {
	dev := cpumodel.IoTDevices()[i]
	solveHashes := nashParams.ExpectedSolveHashes()
	return []sweep.Metric{
		{Name: "hash_rate", Value: dev.HashRate},
		{Name: "hashes_in_400ms", Value: dev.HashesIn(game.DefaultHandshakeBudget)},
		{Name: "nash_solve_time_ms", Value: float64(dev.TimeFor(solveHashes)) / float64(time.Millisecond)},
		{Name: "max_flood_cps", Value: dev.HashRate / solveHashes},
	}, nil, nil
}

var table1Table = perCell("Table 1 — embedded device profiles (+ derived flood capability)",
	[]string{"device", "hashes/s", "hashes-in-400ms", "nash-solve-time", "max-flood-cps"},
	func(r sweep.Result) []string {
		return []string{
			r.Scenario.Label,
			f1(r.Metric("hash_rate")),
			f1(r.Metric("hashes_in_400ms")),
			msDuration(r.Metric("nash_solve_time_ms")).Round(time.Millisecond).String(),
			f2(r.Metric("max_flood_cps")),
		}
	})

// Table 1 and Experiment 6: each of the four Pis solves the Nash puzzle
// within 30 s, but completes under one solved connection a second.
var table1Claims = []Claim{{"pis-connect-but-cannot-flood", func(_ Scale, rs []sweep.Result) error {
	errs := []error{want(len(rs) == 4, "%d devices, want 4", len(rs))}
	for _, r := range rs {
		solve, cps := msDuration(r.Metric("nash_solve_time_ms")), r.Metric("max_flood_cps")
		errs = append(errs, want(solve <= 30*time.Second && cps <= 1, "%s: Nash solve %v, flood rate %.3f cps; want ≤ 30s and ≤ 1", r.Scenario.Label, solve, cps))
	}
	return errors.Join(errs...)
}}}

// nashFiniteN is the population size of the finite-N numeric cross-check.
const nashFiniteN = 2000

// nashGrid declares the single worked-example cell of §4.4.
func nashGrid(Scale) sweep.Grid {
	return sweep.Grid{Axes: []sweep.Axis{sweep.Variants("example",
		sweep.Point{Label: "nash-equilibrium"},
	)}}
}

// nashCell reproduces §4.4 end-to-end: w_av from the client CPU profiles,
// α from the stress test, ℓ* from Theorem 1, (k*, m*) from the practical
// selection procedure, and a finite-N numeric optimum for
// cross-validation.
func nashCell(int, Scenario) ([]sweep.Metric, []sweep.Series, error) {
	var rates []float64
	for _, dev := range cpumodel.ClientCPUs() {
		rates = append(rates, dev.HashRate)
	}
	wav, err := game.WavAverage(rates, game.DefaultHandshakeBudget)
	if err != nil {
		return nil, nil, err
	}
	stress := mm1.PaperStress()
	alpha, err := game.AlphaFromStress(stress.Sweep([]int{10, 100, 500, 1000}))
	if err != nil {
		return nil, nil, err
	}
	lstar, err := game.LStar(wav, alpha)
	if err != nil {
		return nil, nil, err
	}
	params, err := game.SelectParams(wav, alpha)
	if err != nil {
		return nil, nil, err
	}
	g := game.UniformGame(nashFiniteN, wav, alpha*nashFiniteN)
	finite, err := g.OptimalDifficulty()
	if err != nil {
		return nil, nil, err
	}
	return []sweep.Metric{
		{Name: "w_av", Value: wav},
		{Name: "alpha", Value: alpha},
		{Name: "l_star", Value: lstar},
		{Name: "k_star", Value: float64(params.K)},
		{Name: "m_star", Value: float64(params.M)},
		{Name: "finite_l_star", Value: finite},
		{Name: "finite_n", Value: nashFiniteN},
	}, nil, nil
}

// nashTable renders the worked example.
func nashTable(results []sweep.Result) sweep.Table {
	r := results[0]
	return sweep.Table{
		Title:  "§4.4 — Nash equilibrium difficulty",
		Header: []string{"quantity", "value"},
		Rows: [][]string{
			{"w_av (hashes/400ms)", f1(r.Metric("w_av"))},
			{"alpha", f3(r.Metric("alpha"))},
			{"ℓ* = w_av/(α+1)", f1(r.Metric("l_star"))},
			{"(k*, m*)", fmt.Sprintf("(%d, %d)", uint8(r.Metric("k_star")), uint8(r.Metric("m_star")))},
			{fmt.Sprintf("finite-N ℓ* (N=%d)", int(r.Metric("finite_n"))), f1(r.Metric("finite_l_star"))},
		},
	}
}

// §4.4: the worked example selects (2, 17) at α ≈ 1.1; the finite-N
// optimum lies within 5 % of the asymptotic ℓ*.
var nashClaims = []Claim{
	within("k-star", "nash-equilibrium", "k_star", 2, 2),
	within("m-star", "nash-equilibrium", "m_star", 17, 17),
	within("alpha", "nash-equilibrium", "alpha", 1.1-0.02, 1.1+0.02),
	{"finite-n-matches-l-star", func(_ Scale, rs []sweep.Result) error {
		finite, lstar := cellMetric(rs, "nash-equilibrium", "finite_l_star"), cellMetric(rs, "nash-equilibrium", "l_star")
		return want(math.Abs(finite-lstar)/lstar <= 0.05, "finite-N ℓ* %.1f, want within 5 %% of ℓ* %.1f", finite, lstar)
	}},
}

// uniformityMemParams charges the Nash-equivalent expected work as
// dependent memory accesses: 2^12 trials × 64 lookups = 262144 accesses,
// numerically equal to the hash scheme's k·2^m = 262144 operations.
var uniformityMemParams = membound.Params{M: 12, Walk: 64}

// uniformityDevices is the full device mix the paper profiles: three
// client Xeons plus the four Raspberry Pis.
func uniformityDevices() []cpumodel.Device {
	return append(append([]cpumodel.Device{}, cpumodel.ClientCPUs()...),
		cpumodel.IoTDevices()...)
}

// memboundGrid declares the memory-bound alternative of §7, one cell per
// profiled device: the Nash-equivalent expected work is charged once as
// SHA-256 operations and once as dependent memory accesses.
func memboundGrid(Scale) sweep.Grid { return deviceGrid("device", uniformityDevices()) }

// memboundCell reports one device's expected solve times under both
// schemes. Expected costs: the geometric search does 2^m trials per
// solution on average.
func memboundCell(i int, _ Scenario) ([]sweep.Metric, []sweep.Series, error) {
	dev := uniformityDevices()[i]
	hashOps := float64(nashParams.K) * float64(uint64(1)<<nashParams.M)
	hashT, memT := dev.TimeFor(hashOps), dev.TimeForAccesses(uniformityMemParams.ExpectedAccesses())
	return []sweep.Metric{
		{Name: "hash_solve_ms", Value: float64(hashT) / float64(time.Millisecond)},
		{Name: "mem_solve_ms", Value: float64(memT) / float64(time.Millisecond)},
	}, nil, nil
}

// uniformityCV returns the coefficient of variation (std/mean) of solve
// time across the device mix under each scheme — the §7 fairness metric;
// smaller means fairer.
func uniformityCV(results []sweep.Result) (hashCV, memCV float64) {
	var hashTimes, memTimes []float64
	for _, r := range results {
		hashTimes = append(hashTimes, msDuration(r.Metric("hash_solve_ms")).Seconds())
		memTimes = append(memTimes, msDuration(r.Metric("mem_solve_ms")).Seconds())
	}
	hm, hs := stats.MeanStd(hashTimes)
	mm, ms := stats.MeanStd(memTimes)
	if hm > 0 {
		hashCV = hs / hm
	}
	if mm > 0 {
		memCV = ms / mm
	}
	return hashCV, memCV
}

// §7: memory-bound solve times are far more uniform across the seven
// devices than hash-bound ones, and the slowest, the Pi D1, profits most.
var memboundClaims = []Claim{
	{"memory-bound-uniform", func(_ Scale, rs []sweep.Result) error {
		hashCV, memCV := uniformityCV(rs)
		return want(len(rs) == 7 && memCV < hashCV && hashCV >= 0.5 && memCV <= 0.35,
			"CV %.3f memory-bound, %.3f hash over %d devices; want 7 devices, memory-bound ≤ 0.35 and below hash, hash ≥ 0.5",
			memCV, hashCV, len(rs))
	}},
	{"pi-speeds-up", func(_ Scale, rs []sweep.Result) error {
		mem, hash := cellMetric(rs, "D1", "mem_solve_ms"), cellMetric(rs, "D1", "hash_solve_ms")
		return want(mem < hash, "D1 solves in %.1f ms memory-bound, want below %.1f ms hash", mem, hash)
	}},
}

// memboundTable renders the uniformity study.
func memboundTable(results []sweep.Result) sweep.Table {
	t := perCell("Ablation — memory-bound puzzles: solve-time uniformity (§7)",
		[]string{"device", "hash-solve", "membound-solve"},
		func(r sweep.Result) []string {
			return []string{
				r.Scenario.Label,
				msDuration(r.Metric("hash_solve_ms")).Round(time.Millisecond).String(),
				msDuration(r.Metric("mem_solve_ms")).Round(time.Millisecond).String(),
			}
		})(results)
	hashCV, memCV := uniformityCV(results)
	t.Rows = append(t.Rows, []string{"CV (std/mean)", f3(hashCV), f3(memCV)})
	return t
}
