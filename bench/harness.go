package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// env is what a workload's set-up receives. seed is the only workload
// input: every Scenario.Seed derives from it, and the program under test
// sees only the scenarios built from it.
type env struct {
	seed    int64
	workers int    // min(nproc, 4): the width of every parallel load
	scratch string // directory for temporary files, inside the checkout
	quick   bool   // test scale: small probe loops, no repeated set-up
	cal     *calibrator
}

// instance is one set-up of a workload, ready to run timed operations.
type instance interface {
	// op runs operation i and checks its output; an error counts the
	// operation as failed. tr is nil for an untraced operation.
	op(i int, tr *tracer) error
	// check runs the workload-wide correctness checks after the timed
	// operations.
	check() error
	// layers reports the per-layer counts read from the program's own
	// result objects.
	layers(set func(name string, v float64)) error
	// digest is the SHA-256 of the reference output, so two commits can
	// be compared for identical simulated statistics.
	digest() string
	close() error
}

// workload is a named set of inputs. why is recorded in BENCHMARK.json.
type workload struct {
	name string
	// maxOps ends the timed phase early when non-zero (proxy_load is
	// bounded by the ephemeral port range, not by time alone).
	maxOps int
	// probes are the micro-probe groups whose layers this workload
	// passes through; the others' metrics read 0 on it.
	probes []probeGroup
	setup  func(env) (instance, error)
}

// config is one invocation of the harness.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	root    string
	// ops, when positive, replaces the time bound with an exact count of
	// timed operations and skips repeated set-up (tests).
	ops int
}

// Every run times at least minOps operations so that both halves of a
// traced run (blocks of traceBlock operations, alternately traced and
// untraced) have samples. setupReps set-ups are timed and the median is
// reported, because one set-up is too short to repeat steadily. The host
// is calibrated after every calEvery of operations: its speed moves in
// bursts shorter than a second, so a calibration says little about an
// operation that ran a quarter of a second away from it (README.md has
// the measurements).
const (
	minOps     = 8
	traceBlock = 4
	setupReps  = 5
	calEvery   = 50 * time.Millisecond
)

// metric is one reported value with its declared unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a result plus what the human-readable report and the result
// file add to it.
type outcome struct {
	Workload string   `json:"workload"`
	Traced   bool     `json:"traced"`
	Digest   string   `json:"result_digest"`
	Samples  sampling `json:"op_wall_samples"`
	Notes    []string `json:"notes,omitempty"`
	Result   result   `json:"result"`

	spans []span
}

// sampling describes the distribution behind op_wall_ms.
type sampling struct {
	N        int     `json:"n"`
	Q1Ms     float64 `json:"q1_ms"`
	MedianMs float64 `json:"median_ms"`
	Q3Ms     float64 `json:"q3_ms"`
	Tail     string  `json:"tail,omitempty"`
	TailMs   float64 `json:"tail_ms,omitempty"`
}

// quiesce returns freed memory to the OS so each phase starts from the
// same heap whatever ran before it. The second collection empties what
// sync.Pools held at the first.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory() // collects once more before releasing
}

// liveHeap is the heap in use after everything unreachable is collected.
func liveHeap() uint64 {
	quiesce()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// spanMetrics maps a span name to the per-layer metric that reports its
// self time per operation, and the nanoseconds in one unit of it.
var spanMetrics = map[string]struct {
	metric string
	perNs  float64
}{
	"experiments.run_flood": {"experiments.run_flood_ms", 1e6},
	"experiments.extract":   {"experiments.extract_us", 1e3},
	"sweep.ndjson_write":    {"sweep.ndjson_write_us", 1e3},
	"sweep.csv_write":       {"sweep.csv_write_us", 1e3},
	"puzzlenet.dial":        {"puzzlenet.dial_us", 1e3},
	"puzzlenet.echo":        {"puzzlenet.echo_us", 1e3},
	"puzzlenet.close":       {"puzzlenet.close_us", 1e3},
}

// timing is what the timed phase of a run measured. Wall seconds per
// operation: raw, and at reference-host speed for untraced (plain) and
// traced operations. cpu and busyWall are the process CPU time and the wall
// time of the operations alone, calibrations excluded; slows has one
// host slowdown per slice.
type timing struct {
	n                         int
	raw, plain, traced, slows []float64
	cpu, busyWall             float64
}

// timeOps repeats the instance's operation until the run's time or count
// is reached, calibrating the host between slices of operations.
func timeOps(inst instance, w workload, cfg config, cal *calibrator, tr *tracer, fail func(string, ...any)) timing {
	var tm timing
	start := time.Now()
	done := func() bool {
		if cfg.ops > 0 {
			return tm.n >= cfg.ops
		}
		return (tm.n >= minOps && time.Since(start).Seconds() >= cfg.seconds) || (w.maxOps > 0 && tm.n >= w.maxOps)
	}
	slow := cal.slowdown()
	for !done() {
		// One slice: operations for calEvery, then a calibration. Each
		// timing in the slice is divided by the mean of the slowdowns
		// measured just before and just after it.
		first := tm.n
		cpu0 := cpuSeconds()
		sliceStart := time.Now()
		for {
			// A traced run alternates blocks of traced and untraced
			// operations, so the two are compared within one run.
			opTr := tr
			if (tm.n/traceBlock)%2 == 1 {
				opTr = nil
			}
			t := time.Now()
			err := inst.op(tm.n, opTr)
			tm.raw = append(tm.raw, time.Since(t).Seconds())
			if err != nil {
				fail("op %d: %v", tm.n, err)
			}
			tm.n++
			if done() || time.Since(sliceStart) >= calEvery {
				break
			}
		}
		tm.busyWall += time.Since(sliceStart).Seconds()
		tm.cpu += cpuSeconds() - cpu0
		next := cal.slowdown()
		f := (slow + next) / 2
		slow = next
		tm.slows = append(tm.slows, f)
		for i := first; i < tm.n; i++ {
			if tr != nil && (i/traceBlock)%2 == 0 {
				tm.traced = append(tm.traced, tm.raw[i]/f)
			} else {
				tm.plain = append(tm.plain, tm.raw[i]/f)
			}
		}
	}
	return tm
}

// run sets the workload up, times its operations, checks them, and
// returns every end-to-end metric (untraced) or every per-layer metric
// (traced) that BENCHMARK.json declares.
func run(w workload, sp *spec, cfg config) (out *outcome, err error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	defer cal.close()
	e := env{
		cal:     cal,
		seed:    cfg.seed,
		workers: min(runtime.NumCPU(), 4),
		scratch: scratchDir(cfg.root),
		quick:   cfg.ops > 0,
	}
	out = &outcome{Workload: w.name, Traced: cfg.traced}
	// What the process held before this workload touched it: the runtime,
	// and whatever earlier workloads of the same process left initialised.
	baseHeap := liveHeap()
	fail := func(format string, args ...any) {
		out.Result.Failed++
		if len(out.Notes) < 10 {
			out.Notes = append(out.Notes, fmt.Sprintf(format, args...))
		}
	}
	values := map[string]float64{}
	declared := sp.EndToEnd
	if cfg.traced {
		declared = sp.PerLayer
	}
	set := func(name string, v float64) {
		if _, ok := unit(declared, name); !ok {
			fail("metric %q is not declared in BENCHMARK.json", name)
			return
		}
		if _, dup := values[name]; dup {
			fail("metric %q emitted twice", name)
		}
		if !allFinite(v) {
			fail("metric %q is not finite", name)
			v = 0
		}
		values[name] = v
	}

	if cfg.traced {
		// Probes run first, while nothing else does.
		for _, probe := range w.probes {
			if err := probe(set, e); err != nil {
				fail("probe: %v", err)
			}
		}
	}

	reps := setupReps
	if e.quick {
		reps = 1
	}
	var inst instance
	var setups []float64 // reference-host seconds per set-up
	for r := 0; r < reps; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		quiesce()
		slow := cal.slowdown()
		t := time.Now()
		inst, err = w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t).Seconds()
		setups = append(setups, d/((slow+cal.slowdown())/2))
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			out, err = nil, fmt.Errorf("%s: close: %w", w.name, cerr)
		}
	}()
	out.Digest = inst.digest()

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	quiesce()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	tm := timeOps(inst, w, cfg, cal, tr, fail)
	gcCPU := gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	out.Result.Attempted = tm.n
	if err := inst.check(); err != nil {
		fail("check: %v", err)
	}

	walls := sortedCopy(append(append([]float64(nil), tm.plain...), tm.traced...))
	opWall := quantile(walls, 0.5)
	out.Samples = sampling{
		N: len(walls), Q1Ms: quantile(walls, 0.25) * 1e3, MedianMs: opWall * 1e3, Q3Ms: quantile(walls, 0.75) * 1e3,
	}
	if t, ok := highestTail(len(walls)); ok {
		out.Samples.Tail, out.Samples.TailMs = t.name, t.of(walls)*1e3
	}

	if !cfg.traced {
		// Retained heap is what is live beyond baseHeap while the instance
		// still references its last result — what a caller holding that
		// result would pay. The harness's own samples are dropped first:
		// they are not the program's memory.
		tm.raw, tm.plain, tm.traced, walls = nil, nil, nil, nil
		retained := liveHeap() - baseHeap
		runtime.KeepAlive(inst)
		set("op_wall_norm_ms", opWall*1e3)
		// CPU per operation is the wall figure times the mean number of
		// cores busy: that ratio holds steady when the host slows, where a
		// sum of normalised CPU slices does not.
		set("op_cpu_norm_ms", opWall*1e3*tm.cpu/tm.busyWall)
		set("retained_heap_mb", float64(retained)/(1<<20))
		set("setup_s", median(setups))
	} else {
		if err := inst.layers(set); err != nil {
			fail("layers: %v", err)
		}
		out.spans = tr.spans
		// Spans are recorded raw; the metrics derived from them are put
		// at reference-host speed by the run's median slowdown.
		hostSlow := median(tm.slows)
		for name, perOp := range selfByName(tr.spans) {
			if sm, ok := spanMetrics[name]; ok {
				set(sm.metric, median(perOp)/sm.perNs/hostSlow)
			}
		}
		set("experiments.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(tm.n))
		set("experiments.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(tm.n)/(1<<20))
		if tm.cpu > 0 {
			set("runtime.gc_cpu_share", gcCPU/tm.cpu)
		}
		set("bench.op_wall_raw_ms", median(tm.raw)*1e3)
		set("bench.host_slowdown", hostSlow)
		if len(tm.plain) > 0 && len(tm.traced) > 0 {
			set("trace.overhead_share", median(tm.traced)/median(tm.plain)-1)
		}
		if events := values["netsim.events_per_op"]; events > 0 {
			set("netsim.wall_ns_per_event", opWall*1e9/events)
			// An estimate: a packet costs two events (arrival, delivery);
			// assume half of all events are packet legs and half timers.
			perEvent := values["netsim.schedule_ns"]/2 + values["netsim.packet_ns"]/4
			set("netsim.engine_share_est", events*perEvent/(opWall*1e9))
		}
	}

	out.Result.Metrics = make(map[string]metric, len(declared))
	for _, d := range declared {
		out.Result.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	out.Result.Correct = out.Result.Failed == 0
	return out, nil
}

// scratchDir is where workloads put temporary files: inside the checkout,
// beside the result files, never under os.TempDir().
func scratchDir(root string) string {
	return filepath.Join(root, "bench", "out")
}
