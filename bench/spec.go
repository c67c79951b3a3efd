package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specMetric is one metric declared in BENCHMARK.json. Bound is the share
// of the parent's median by which an end-to-end metric may worsen; it is
// absent on per-layer metrics.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is BENCHMARK.json: the one place where workload names, metric
// names, units, directions and bounds are declared. The harness reads
// units from it rather than repeating them, so a metric the code emits
// but the file does not declare is an error, not a silent extra.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json — the checkout root, whichever directory `go run -C`
// left the process in.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// unit returns the declared unit of a metric in list.
func unit(list []specMetric, name string) (string, bool) {
	for _, m := range list {
		if m.Name == name {
			return m.Unit, true
		}
	}
	return "", false
}
