package netsim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Every test here ends in a bounded wait or a Run that must return: a lost
// wake-up shows as a hang, so run them with a -timeout well below the
// default (CI's race job: -race -count=10 -timeout 120s).

// settleGoroutines waits for the goroutine count to fall back to want. The
// barrier's close joins its workers, but a joined worker is still counted
// for the last few instructions of its exit.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d: shard workers leaked", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestBarrierSubMicrosecondWindows drives thousands of barriers per run: a
// 200 ns link makes the lookahead 400 ns, so nearly every event is its own
// window. The mesh must stay byte-identical to the serial engine at every
// shard count with fewer Ps than shards (1, 2) and with more (8).
func TestBarrierSubMicrosecondWindows(t *testing.T) {
	link := LinkConfig{RateBps: 1e9, Latency: 200 * time.Nanosecond, MaxBacklog: 10 * time.Millisecond}
	want := echoFingerprint(t, 1, 6, link, time.Second)
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, shards := range []int{2, 3, 4, 8} {
				got, net := echoMeshRun(t, shards, 6, link, time.Second, 100, false)
				st := net.ShardStats()
				if got != want {
					t.Errorf("GOMAXPROCS=%d shards=%d diverged from shards=1:\n got:\n%s\nwant:\n%s", procs, shards, got, want)
				}
				if st.Windows < 2000 {
					t.Errorf("GOMAXPROCS=%d shards=%d: %d windows, want thousands", procs, shards, st.Windows)
				}
			}
		}()
	}
}

// quietShardRun is a mesh with one nearly idle shard: two chatty nodes on
// shard 0 talk only to each other, and one node on the last shard sends a
// couple of packets a second (and receives only the echoes of those).
func quietShardRun(t *testing.T, shards int) (fp string, windows int, releases uint64) {
	t.Helper()
	net := NewSharded(shards)
	addrs := []Addr{{10, 0, 0, 1}, {10, 0, 0, 2}, {10, 0, 0, 3}}
	for i, addr := range addrs {
		shard := 0
		if i == 2 {
			shard = shards - 1
		}
		if err := net.Pin(addr, shard); err != nil {
			t.Fatalf("Pin: %v", err)
		}
	}
	const dur = 3 * time.Second
	ens := []*echoNode{
		{addr: addrs[0], peers: addrs[1:2], rate: 200},
		{addr: addrs[1], peers: addrs[0:1], rate: 200},
		{addr: addrs[2], peers: addrs[0:2], rate: 2},
	}
	for i, n := range ens {
		n.eng, n.net = net.EngineFor(n.addr), net
		n.rnd = rand.New(rand.NewSource(int64(7 + i)))
		n.stopAt, n.byPeer = dur, map[Addr]uint64{}
		if err := net.Attach(n, DefaultHostLink()); err != nil {
			t.Fatalf("Attach(%v): %v", n.addr, err)
		}
		n.eng.Schedule(0, n.tick)
	}
	net.Run(dur)
	return echoSummary(ens), net.ShardStats().Windows, net.releases
}

// TestBarrierSkipsIdleShard: a shard with no event inside its window is
// not released, so the quiet shard's worker is handed a small fraction of
// the windows — and leaving it out changes nothing.
func TestBarrierSkipsIdleShard(t *testing.T) {
	want, _, _ := quietShardRun(t, 1)
	got, windows, releases := quietShardRun(t, 2)
	if got != want {
		t.Errorf("quiet-shard run diverged from the serial run:\n got:\n%s\nwant:\n%s", got, want)
	}
	t.Logf("windows=%d releases=%d", windows, releases)
	if releases == 0 {
		t.Error("the quiet shard was never released: its events cannot have fired")
	}
	if windows < 500 || releases*10 > uint64(windows) {
		t.Errorf("%d releases over %d windows; want hundreds of windows and the quiet shard released in under a tenth", releases, windows)
	}
}

// TestBarrierRunTwiceJoinsWorkers: every Run starts its own workers and
// must have joined them by the time it returns.
func TestBarrierRunTwiceJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	net := NewSharded(4)
	statsMesh(t, net, 8)
	net.Run(time.Second)
	settleGoroutines(t, before)
	net.Run(2 * time.Second)
	settleGoroutines(t, before)
	if net.ShardStats().Windows == 0 {
		t.Error("no windowed run happened")
	}
}

// TestBarrierParkedWorkers covers the slow half of the protocol directly:
// workers left alone long enough park; a release must wake a parked worker
// and wait for it, and close must wake and join the ones still parked.
func TestBarrierParkedWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	net := NewSharded(3)
	b := newWindowBarrier(net.shards)
	awaitParked := func(i int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !b.workers[i].park.parked.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never parked", i)
			}
			runtime.Gosched()
		}
	}
	awaitParked(0)
	awaitParked(1)

	fired := false
	net.Engine(1).ScheduleAt(time.Millisecond, func() { fired = true })
	b.run([]time.Duration{time.Second, time.Second, time.Second})
	if !fired {
		t.Error("run returned before the released shard's event fired")
	}
	if b.releases != 1 {
		t.Errorf("%d releases, want 1: only shard 1 had an event", b.releases)
	}

	awaitParked(0)
	b.close()
	settleGoroutines(t, before)
}
