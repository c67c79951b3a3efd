package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/attacksim"
	"github.com/tcppuzzles/tcppuzzles/internal/clientsim"
	"github.com/tcppuzzles/tcppuzzles/internal/experiments"
	"github.com/tcppuzzles/tcppuzzles/internal/netsim"
	"github.com/tcppuzzles/tcppuzzles/internal/pzengine"
	"github.com/tcppuzzles/tcppuzzles/internal/serversim"
	"github.com/tcppuzzles/tcppuzzles/internal/srvmetrics"
	"github.com/tcppuzzles/tcppuzzles/internal/tcpkit"
	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/sweep"
	"github.com/tcppuzzles/tcppuzzles/tcpopt"
)

// A probe is a micro-loop timing one public function of one layer, in
// isolation, for a fixed number of calls. Probes do not depend on the
// workload; a workload runs the groups whose layers it passes through
// (probeSim, probeSweep, probePuzzle), before its own set-up, so nothing
// else is running.
type probeGroup func(set func(string, float64), e env) error

// timeLoop calls fn n times and returns reference-host nanoseconds (see
// calib.go) and heap allocations per call.
func (e env) timeLoop(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	slow := e.cal.slowdown()
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	slow = (slow + e.cal.slowdown()) / 2
	return float64(d) / float64(n) / slow, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// calls scales a probe's call count down for the test-scale run.
func (e env) calls(n int) int {
	if e.quick {
		return max(n/200, 10)
	}
	return n
}

var (
	probeServer = netsim.Addr{10, 0, 0, 1}
	probePeer   = netsim.Addr{10, 9, 0, 1}
	// fatLink never queues or drops, so a probe times the code path and
	// not a modelled link filling up at a frozen clock.
	fatLink = netsim.LinkConfig{RateBps: 1e12, Latency: time.Millisecond, MaxBacklog: time.Hour}
)

// probeParams is the difficulty of the real-crypto probes: small enough
// to brute-force thousands of times.
var probeParams = puzzle.Params{K: 2, M: 8, L: 32}

// sinkNode counts deliveries.
type sinkNode struct {
	addr netsim.Addr
	got  int
}

func (s *sinkNode) Addr() netsim.Addr     { return s.addr }
func (s *sinkNode) Handle(tcpkit.Segment) { s.got++ }

func synOptions() ([]byte, error) {
	return tcpopt.MarshalOptions([]tcpopt.Option{tcpopt.MSSOption(1460), tcpopt.WScaleOption(7)})
}

// probeServerWith builds a stand-alone server whose listen queue is as
// small as the workloads' and whose worker pool is off, so SYNs meet the
// saturated-queue path a flood drives.
func probeServerWith(d sweep.Defense, acceptBacklog int) (*serversim.Server, error) {
	eng := netsim.NewEngine()
	return serversim.New(eng, netsim.NewNetwork(eng), fatLink, serversim.Config{
		Addr: probeServer, Defense: d, AlwaysChallenge: true, SimulatedCrypto: true,
		Backlog: 512, AcceptBacklog: acceptBacklog, Workers: -1, Seed: 1,
	})
}

func probeSim(set func(string, float64), e env) error {
	// netsim: timer path — schedule a callback, fire it, schedule the next.
	{
		eng := netsim.NewEngine()
		var tick func()
		tick = func() { eng.Schedule(time.Microsecond, tick) }
		eng.Schedule(0, tick)
		ns, allocs := e.timeLoop(e.calls(2_000_000), func(int) { eng.Step() })
		set("netsim.schedule_ns", ns)
		set("netsim.schedule_allocs", allocs)
	}
	// netsim: packet path — SendFrom, uplink, arrival event, downlink,
	// delivery into the destination node.
	{
		eng := netsim.NewEngine()
		network := netsim.NewNetwork(eng)
		src, dst := &sinkNode{addr: probePeer}, &sinkNode{addr: probeServer}
		for _, n := range []*sinkNode{src, dst} {
			if err := network.Attach(n, fatLink); err != nil {
				return err
			}
		}
		seg := tcpkit.Segment{Src: src.addr, Dst: dst.addr, SrcPort: 1234, DstPort: 80, Flags: tcpkit.FlagSYN, Window: 65535}
		send := func(int) {
			network.SendFrom(src.addr, seg)
			for eng.Step() {
			}
		}
		send(0) // warm the event pool
		n := e.calls(500_000)
		ns, allocs := e.timeLoop(n, send)
		if dst.got != n+1 {
			return fmt.Errorf("netsim.packet: delivered %d of %d", dst.got, n+1)
		}
		set("netsim.packet_ns", ns)
		set("netsim.packet_allocs", allocs)
	}
	// netsim: the macro-source send path, SourceStore.SendAt.
	{
		eng := netsim.NewEngine()
		network := netsim.NewNetwork(eng)
		dst := &sinkNode{addr: probeServer}
		if err := network.Attach(dst, fatLink); err != nil {
			return err
		}
		const sources = 10_000
		store, err := network.AttachSources(sources, netsim.Addr{10, 2, 0, 1}, fatLink, func(int32, tcpkit.Segment) {})
		if err != nil {
			return err
		}
		seg := tcpkit.Segment{Dst: dst.addr, SrcPort: 1234, DstPort: 80, Flags: tcpkit.FlagSYN, Window: 65535}
		n := e.calls(500_000)
		ns, _ := e.timeLoop(n, func(i int) {
			slot := int32(i % sources)
			seg.Src = store.Addr(slot)
			store.SendAt(slot, eng.Now(), seg)
			for eng.Step() {
			}
		})
		if dst.got != n {
			return fmt.Errorf("netsim.sendat: delivered %d of %d", dst.got, n)
		}
		set("netsim.sendat_ns", ns)
	}

	// serversim + defense: one SYN into Server.Handle, per defense.
	opts, err := synOptions()
	if err != nil {
		return err
	}
	for _, d := range []sweep.Defense{sweep.DefenseNone, sweep.DefenseCookies, sweep.DefenseSYNCache, sweep.DefensePuzzles} {
		srv, err := probeServerWith(d, 512)
		if err != nil {
			return err
		}
		// Sources 11.x.y.z: a fresh peer per SYN, none of them attached.
		syn := tcpkit.Segment{Src: netsim.Addr{11}, Dst: probeServer, SrcPort: 5000, DstPort: 80, Flags: tcpkit.FlagSYN, Window: 65535, Options: opts}
		n := e.calls(200_000)
		ns, allocs := e.timeLoop(n, func(i int) {
			syn.Src[1], syn.Src[2], syn.Src[3] = byte(i>>16), byte(i>>8), byte(i)
			syn.Seq = uint32(i)
			srv.Handle(syn)
		})
		if got := srv.Metrics().SYNsReceived; got != uint64(n) {
			return fmt.Errorf("serversim.syn %s: server counted %d of %d SYNs", d, got, n)
		}
		set("serversim.syn_ns."+string(d), ns)
		set("serversim.syn_allocs."+string(d), allocs)
	}
	// serversim: an ACK carrying a valid simulated solution — parse,
	// verify, establish.
	{
		n := e.calls(20_000)
		srv, err := probeServerWith(sweep.DefensePuzzles, n)
		if err != nil {
			return err
		}
		acks := make([]tcpkit.Segment, n)
		for i := range acks {
			src := netsim.Addr{10, byte(9 + i>>16), byte(i >> 8), byte(i)}
			flow := puzzle.FlowID{SrcIP: src, DstIP: probeServer, SrcPort: 5000, DstPort: 80, ISN: uint32(i)}
			opt, err := tcpopt.EncodeSolution(tcpopt.SolutionBlock{
				MSS: 1460, WScale: 7, HasTimestamp: true,
				Solution: pzengine.SimSolution(srv.Issuer().Issue(flow)),
			})
			if err != nil {
				return err
			}
			raw, err := tcpopt.MarshalOptions([]tcpopt.Option{opt})
			if err != nil {
				return err
			}
			acks[i] = tcpkit.Segment{
				Src: src, Dst: probeServer, SrcPort: 5000, DstPort: 80,
				Seq: uint32(i) + 1, Ack: 1, Flags: tcpkit.FlagACK, Options: raw,
			}
		}
		ns, _ := e.timeLoop(n, func(i int) { srv.Handle(acks[i]) })
		if got := srv.Metrics().SolutionsVerified; got != uint64(n) {
			return fmt.Errorf("serversim.solution_ack: %d of %d solutions verified", got, n)
		}
		set("serversim.solution_ack_ns", ns)
	}

	// clientsim: open one connection attempt (SYN out, RTO armed).
	{
		eng := netsim.NewEngine()
		client, err := clientsim.New(eng, netsim.NewNetwork(eng), fatLink, clientsim.Config{
			Addr: probePeer, ServerAddr: probeServer, Solves: true, SimulatedCrypto: true, Seed: 1,
		})
		if err != nil {
			return err
		}
		n := e.calls(50_000) // below the 60,000 ports a client cycles through
		ns, allocs := e.timeLoop(n, func(int) { client.Connect() })
		if got := client.Metrics().Started; got != uint64(n) {
			return fmt.Errorf("clientsim.connect: %d of %d attempts started", got, n)
		}
		set("clientsim.connect_ns", ns)
		set("clientsim.connect_allocs", allocs)
	}

	// attacksim: one tick of one connection-flood bot, engine stepped
	// per tick.
	{
		eng := netsim.NewEngine()
		bot, err := attacksim.New(eng, netsim.NewNetwork(eng), fatLink, attacksim.Config{
			Addr: probePeer, ServerAddr: probeServer, Attack: sweep.AttackConnFlood,
			Rate: 1e6, Solves: true, SimulatedCrypto: true, Seed: 1,
		})
		if err != nil {
			return err
		}
		n := e.calls(500_000)
		ns, _ := e.timeLoop(n, func(int) { eng.Step() })
		if got := bot.Metrics().Sent.Sum(); got != float64(n) {
			return fmt.Errorf("attacksim.bot_tick: %v of %d packets sent", got, n)
		}
		set("attacksim.bot_tick_ns", ns)
	}
	// attacksim: a macro fleet of 10k spoofing sources, per source tick.
	{
		network := netsim.NewSharded(1)
		if err := network.Attach(&sinkNode{addr: probeServer}, fatLink); err != nil {
			return err
		}
		fleet, err := attacksim.NewMacroFleet(network, attacksim.MacroConfig{
			Sources: 10_000, BaseAddr: [4]byte{10, 2, 0, 1}, ServerAddr: probeServer,
			Attack: sweep.AttackSYNFlood, PerSourceRate: 10, SimulatedCrypto: true,
			StopAt: time.Hour, Link: fatLink, Seed: 1,
		})
		if err != nil {
			return err
		}
		until := 5 * time.Second
		if e.quick {
			until = time.Second
		}
		ns, _ := e.timeLoop(1, func(int) { network.Run(until) })
		sent := fleet.Metrics().Sent.Sum()
		if sent == 0 {
			return fmt.Errorf("attacksim.macro_tick: nothing sent")
		}
		set("attacksim.macro_tick_ns_per_source", ns/sent)
	}

	// pzengine: verifying a simulated solution (the simulator's stand-in
	// for the SHA-256 check).
	{
		issuer, err := puzzle.NewIssuer(puzzle.WithParams(puzzle.Params{K: 2, M: 17, L: 32}), puzzle.WithSecret([]byte("bench")))
		if err != nil {
			return err
		}
		flow := puzzle.FlowID{SrcIP: probePeer, DstIP: probeServer, SrcPort: 5000, DstPort: 80, ISN: 7}
		sol := pzengine.SimSolution(issuer.Issue(flow))
		engine := pzengine.Sim{Is: issuer}
		var verr error
		ns, _ := e.timeLoop(e.calls(200_000), func(int) {
			if _, err := engine.Verify(flow, sol); err != nil {
				verr = err
			}
		})
		if verr != nil {
			return fmt.Errorf("pzengine.sim_verify: %w", verr)
		}
		set("pzengine.sim_verify_ns", ns)
	}

	// srvmetrics: accounting one establishment, per source and folded
	// into one aggregate series (the macro path).
	for _, agg := range []bool{false, true} {
		m := srvmetrics.New(time.Second)
		name := "srvmetrics.record_established_ns"
		if agg {
			m.AggregateSrcs(func([4]byte) bool { return true })
			name = "srvmetrics.record_established_agg_ns"
		}
		peer := tcpkit.PeerKey{IP: probePeer, Port: 5000}
		ns, _ := e.timeLoop(e.calls(2_000_000), func(i int) {
			peer.IP[3] = byte(i % 36) // as many sources as flood_cell has hosts
			m.RecordEstablished(time.Duration(i)*time.Microsecond, peer)
		})
		set(name, ns)
	}
	return nil
}

func probeSweep(set func(string, float64), e env) error {
	cells := figGrid(e.seed, e.quick).Expand(nil)
	for i := range cells {
		cells[i] = cells[i].Defaults()
	}
	ns, _ := e.timeLoop(e.calls(20_000), func(i int) { sweep.Hash("sweep", cells[i%len(cells)]) })
	set("sweep.hash_us", ns/1e3)

	// Cache Put/Get with a real cell's result: the grid's first cell.
	run, err := experiments.RunFlood(cells[0])
	if err != nil {
		return err
	}
	metrics, series := experiments.StandardMetrics(run)
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return err
	}
	var perr error
	ns, _ = e.timeLoop(e.calls(2_000), func(int) {
		if err := cache.Put("sweep", cells[0], metrics, series); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}
	set("sweep.cache_put_us", ns/1e3)
	ns, _ = e.timeLoop(e.calls(5_000), func(int) { cache.Get("sweep", cells[0]) })
	if cache.Misses() != 0 {
		return fmt.Errorf("sweep.cache_get: %d misses on a stored cell", cache.Misses())
	}
	set("sweep.cache_get_us", ns/1e3)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			set("sweep.cache_entry_bytes", float64(info.Size()))
		}
	}
	return nil
}

func probePuzzle(set func(string, float64), e env) error {
	issuer, err := puzzle.NewIssuer(puzzle.WithParams(probeParams), puzzle.WithSecret([]byte("bench")))
	if err != nil {
		return err
	}
	flow := puzzle.FlowID{SrcIP: probePeer, DstIP: probeServer, SrcPort: 5000, DstPort: 80}

	ns, _ := e.timeLoop(e.calls(500_000), func(i int) {
		flow.ISN = uint32(i)
		issuer.Issue(flow)
	})
	set("puzzle.issue_ns", ns)

	var serr error
	ns, _ = e.timeLoop(e.calls(2_000), func(i int) {
		flow.ISN = uint32(i)
		if _, _, err := puzzle.Solve(issuer.Issue(flow)); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return fmt.Errorf("puzzle.solve: %w", serr)
	}
	set("puzzle.solve_us_m8", ns/1e3)

	flow.ISN = 7
	sol, _, err := puzzle.Solve(issuer.Issue(flow))
	if err != nil {
		return err
	}
	var verr error
	ns, _ = e.timeLoop(e.calls(200_000), func(int) {
		if err := issuer.Verify(flow, sol); err != nil {
			verr = err
		}
	})
	if verr != nil {
		return fmt.Errorf("puzzle.verify: %w", verr)
	}
	set("puzzle.verify_ns", ns)

	real := pzengine.Real{Is: issuer}
	ns, _ = e.timeLoop(e.calls(200_000), func(int) {
		if _, err := real.Verify(flow, sol); err != nil {
			verr = err
		}
	})
	if verr != nil {
		return fmt.Errorf("pzengine.real_verify: %w", verr)
	}
	set("pzengine.real_verify_ns", ns)
	return nil
}
