// Command bench is the repository's benchmark: one harness for both
// tiers, the deterministic simulator and the real-socket proxy. It drives
// the system only through public functions of its packages, times named
// workloads, checks their outputs, and prints every metric declared in
// BENCHMARK.json. See README.md in this directory.
//
//	bash bench/run.sh --workload flood_cell --seed 1 --seconds 10 --trace 0
//	go run -C bench . -workload all -seed 1 -trace 1
//	go run -C bench . -check-repeat
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// workloads are the named workloads, in BENCHMARK.json's order.
var workloads = []workload{
	cellWorkload("flood_cell", floodScenario(1)),
	cellWorkload("flood_shards2", floodScenario(2)),
	cellWorkload("macro_flood", macroScenario),
	gridWorkload("fig_grid_cold", false),
	gridWorkload("fig_grid_warm", true),
	proxyWorkload("proxy_load"),
}

// host is the shape of the machine and build a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	PortRange  string `json:"ip_local_port_range"`
}

func hostShape(root string, seed int64) host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, PortRange: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// A checkout that is not a git repository has no commit to report.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if lo, hi, err := portRange(); err == nil {
		h.PortRange = fmt.Sprintf("%d-%d", lo, hi)
	}
	return h
}

// report prints the human-readable view of an outcome.
func report(out *outcome, sp *spec) {
	kind := "end-to-end"
	declared := sp.EndToEnd
	if out.Traced {
		kind, declared = "per-layer (traced run)", sp.PerLayer
	}
	fmt.Printf("== %s: %s ==\n", out.Workload, kind)
	s := out.Samples
	fmt.Printf("operations: %d attempted, %d failed; wall per operation ms: q1 %.4f median %.4f q3 %.4f (n=%d)",
		out.Result.Attempted, out.Result.Failed, s.Q1Ms, s.MedianMs, s.Q3Ms, s.N)
	if s.Tail != "" {
		fmt.Printf(" %s %.4f", s.Tail, s.TailMs)
	}
	fmt.Println()
	if out.Digest != "" {
		fmt.Printf("result_digest: %s\n", out.Digest)
	}
	for _, d := range declared {
		fmt.Printf("  %-40s %16.6g %s\n", d.Name, out.Result.Metrics[d.Name].Value, d.Unit)
	}
	for _, note := range out.Notes {
		fmt.Printf("FAILED: %s\n", note)
	}
}

// save writes the result file — host shape beside the numbers — and, for
// a traced run, the span file.
func save(out *outcome, h host, root string) error {
	dir := scratchDir(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, v any) error {
		data, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
	}
	name := out.Workload + ".result.json"
	if out.Traced {
		name = out.Workload + ".traced.result.json"
		if err := write(out.Workload+".trace.json", struct {
			Host     host   `json:"host"`
			Workload string `json:"workload"`
			Spans    []span `json:"spans"`
		}{h, out.Workload, out.spans}); err != nil {
			return err
		}
	}
	return write(name, struct {
		Host host `json:"host"`
		*outcome
	}{h, out})
}

// selected resolves -workload to the workloads to run.
func selected(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(names, ", "))
}

// checkRepeat runs two full untraced sets on this binary and compares
// each end-to-end metric's two values against the metric's bound.
func checkRepeat(sp *spec, cfg config) error {
	var sets [2]map[string]*outcome
	for i := range sets {
		sets[i] = map[string]*outcome{}
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "set %d: %s\n", i+1, w.name)
			out, err := run(w, sp, cfg)
			if err != nil {
				return err
			}
			if !out.Result.Correct {
				return fmt.Errorf("%s: incorrect: %s", w.name, strings.Join(out.Notes, "; "))
			}
			sets[i][w.name] = out
		}
	}
	excess := 0
	fmt.Printf("%-15s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			a, b := sets[0][w.name].Result.Metrics[m.Name].Value, sets[1][w.name].Result.Metrics[m.Name].Value
			diff := math.Abs(b-a) / a
			flag := ""
			if diff > m.Bound {
				flag = "  EXCESS"
				excess++
			}
			fmt.Printf("%-15s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, m.Name, a, b, diff*100, m.Bound*100, flag)
		}
	}
	if excess > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same code by more than their bound", excess)
	}
	return nil
}

func realMain() error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: every scenario seed derives from it")
	seconds := fs.Float64("seconds", float64(sp.RunSeconds), "length of the timed phase")
	traced := fs.Int("trace", 0, "1 for a traced run: record spans, run the probes, print the per-layer metrics")
	repeat := fs.Bool("check-repeat", false, "run every workload twice and compare the end-to-end metrics against their bounds")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1, root: root}
	if *repeat {
		cfg.traced = false
		return checkRepeat(sp, cfg)
	}
	ws, err := selected(*name)
	if err != nil {
		return err
	}
	h := hostShape(root, *seed)
	fmt.Printf("host: %+v\n", h)
	incorrect := 0
	for _, w := range ws {
		out, err := run(w, sp, cfg)
		if err != nil {
			return err
		}
		if err := save(out, h, root); err != nil {
			return err
		}
		report(out, sp)
		if !out.Result.Correct {
			incorrect++
		}
		// The last line of a run's output is its result, as one JSON object.
		line, err := json.Marshal(out.Result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		quiesce()
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload(s) failed a correctness check", incorrect)
	}
	return nil
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
