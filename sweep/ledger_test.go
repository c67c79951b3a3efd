package sweep_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/tcppuzzles/tcppuzzles/sim"
	"github.com/tcppuzzles/tcppuzzles/sweep"
)

var update = flag.Bool("update", false, "re-bless sweep/testdata/experiments.golden")

const ledgerPath = "testdata/experiments.golden"

// TestExperimentLedger pins the output of every registered experiment at
// ScaleTiny: the rendered tables verbatim, and the sha256 of the NDJSON
// sink stream. A change that moves any figure's bytes fails here; if the
// move is intended, re-bless with
//
//	go test ./sweep -run TestExperimentLedger -update
//
// and record the moved experiments in CHANGES.md. The ledger is only
// checked on the architecture that wrote it: FMA fusion may legitimately
// move float bytes elsewhere.
//
// The ledger is built two ways, each over its own result cache: one
// RunExperiment call per experiment (the reference, and what -update
// writes), and one RunExperiment("all") plan, which shares simulations
// across experiments. Each way runs twice. The second run must be served
// entirely from the cache the first filled, and must print the same
// ledger: cached output equals fresh output for every experiment, series
// included.
func TestExperimentLedger(t *testing.T) {
	var want string
	for _, way := range []struct {
		name   string
		ledger func(*testing.T, ...sim.RunOption) string
	}{{"per-experiment", ledger}, {"plan", planLedger}} {
		cache, err := sweep.OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		got := way.ledger(t, sim.WithCache(cache))
		if *update {
			if err := os.WriteFile(ledgerPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		if want == "" {
			raw, err := os.ReadFile(ledgerPath)
			if err != nil {
				t.Fatalf("%v (run with -update to create the ledger)", err)
			}
			want = string(raw)
			if arch, _, _ := strings.Cut(want, "\n"); arch != "goarch "+runtime.GOARCH {
				t.Skipf("ledger was written on %q; this is %s", arch, runtime.GOARCH)
			}
		}
		compareLedger(t, way.name+" fresh", got, want)

		hits, misses := cache.Hits(), cache.Misses()
		cached := way.ledger(t, sim.WithCache(cache))
		if cache.Misses() != misses || cache.Hits() == hits {
			t.Errorf("%s cached run: %d hits, %d misses; want all hits", way.name, cache.Hits()-hits, cache.Misses()-misses)
		}
		compareLedger(t, way.name+" cached", cached, want)
	}
}

// TestPlanRecordScenarioIsKeyed: for every cell of the tiny "all" plan,
// the NDJSON record's "scenario" bytes are the very bytes its cache key
// hashes. Each record names a cache entry, SHA-256 over the ledger's
// digest, the experiment and those bytes, and the cache holds exactly the
// entries the records name.
func TestPlanRecordScenarioIsKeyed(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, nd := runLedger(t, "all", []sim.RunOption{sim.WithCache(cache)})
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	version := sha256.Sum256(raw)
	named := map[string]bool{}
	for _, line := range bytes.SplitAfter(nd, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Experiment string          `json:"experiment"`
			Scenario   json.RawMessage `json:"scenario"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("NDJSON record: %v", err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%s\n%s\n", hex.EncodeToString(version[:]), rec.Experiment)
		h.Write(rec.Scenario)
		named[rec.Experiment+"-"+hex.EncodeToString(h.Sum(nil))+".entry"] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !named[e.Name()] {
			t.Errorf("cache entry %s is named by no record's scenario bytes", e.Name())
		}
		delete(named, e.Name())
	}
	for name := range named {
		t.Errorf("a record's scenario bytes name %s, which the cache does not hold", name)
	}
	if len(entries) == 0 {
		t.Fatal("the plan cached nothing")
	}
}

// ledger runs every registered experiment at ScaleTiny with opts, one
// RunExperiment call each, and renders the ledger text.
func ledger(t *testing.T, opts ...sim.RunOption) string {
	t.Helper()
	var got strings.Builder
	fmt.Fprintf(&got, "goarch %s\n", runtime.GOARCH)
	for _, id := range sim.ExperimentIDs() {
		tables, nd := runLedger(t, id, opts)
		writeSection(&got, id, nd, tables)
	}
	return got.String()
}

// planLedger renders the same ledger from one RunExperiment("all") call:
// its tables in order, and its NDJSON stream split by each record's
// experiment field, which must follow the registry's order.
func planLedger(t *testing.T, opts ...sim.RunOption) string {
	t.Helper()
	ids := sim.ExperimentIDs()
	tables, nd := runLedger(t, "all", opts)
	if len(tables) != len(ids) {
		t.Fatalf("all: %d tables, want %d", len(tables), len(ids))
	}
	streams := map[string][]byte{}
	at := 0
	for _, line := range bytes.SplitAfter(nd, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Experiment string `json:"experiment"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("all: NDJSON record: %v", err)
		}
		for at < len(ids) && ids[at] != rec.Experiment {
			at++
		}
		if at == len(ids) {
			t.Fatalf("all: NDJSON record of %q out of registry order", rec.Experiment)
		}
		streams[rec.Experiment] = append(streams[rec.Experiment], line...)
	}
	var got strings.Builder
	fmt.Fprintf(&got, "goarch %s\n", runtime.GOARCH)
	for k, id := range ids {
		writeSection(&got, id, streams[id], tables[k:k+1])
	}
	return got.String()
}

// runLedger runs experiment id ("all" for every one) at ScaleTiny with
// opts and returns its tables and its NDJSON sink stream.
func runLedger(t *testing.T, id string, opts []sim.RunOption) ([]sim.Table, []byte) {
	t.Helper()
	var nd bytes.Buffer
	sink := sweep.NewNDJSON(&nd)
	tables, err := sim.RunExperiment(id, sim.ScaleTiny, append(opts, sim.WithSinks(sink))...)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("%s: flush: %v", id, err)
	}
	return tables, nd.Bytes()
}

// writeSection appends one experiment's ledger section: the sha256 of its
// NDJSON stream, then its tables.
func writeSection(got *strings.Builder, id string, nd []byte, tables []sim.Table) {
	sum := sha256.Sum256(nd)
	fmt.Fprintf(got, "\n### %s ndjson-sha256 %s\n", id, hex.EncodeToString(sum[:]))
	for _, tbl := range tables {
		got.WriteString(tbl.String())
	}
}

// compareLedger reports each experiment whose section of got differs from
// the pinned ledger.
func compareLedger(t *testing.T, run, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	wantSec, gotSec := ledgerSections(want), ledgerSections(got)
	for _, id := range sim.ExperimentIDs() {
		if gotSec[id] != wantSec[id] {
			t.Errorf("%s run: %s output moved:\n--- got\n%s\n--- want\n%s", run, id, gotSec[id], wantSec[id])
		}
	}
	if len(gotSec) != len(wantSec) {
		t.Errorf("ledger lists %d experiments, registry %d", len(wantSec), len(gotSec))
	}
}

// ledgerSections splits a ledger into its per-experiment sections.
func ledgerSections(ledger string) map[string]string {
	out := map[string]string{}
	for _, sec := range strings.Split(ledger, "\n### ")[1:] {
		id, _, _ := strings.Cut(sec, " ")
		out[id] = sec
	}
	return out
}
