package sweep_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
// The experiments run twice over one result cache. The second run must be
// served entirely from the cache the first filled, and must print the same
// ledger: cached output equals fresh output for every experiment, series
// included. (fig11 shares fig10's cache namespace, so it hits already in
// the first run.)
func TestExperimentLedger(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := ledger(t, sim.WithCache(cache))
	if *update {
		if err := os.WriteFile(ledgerPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the ledger)", err)
	}
	want := string(raw)
	if arch, _, _ := strings.Cut(want, "\n"); arch != "goarch "+runtime.GOARCH {
		t.Skipf("ledger was written on %q; this is %s", arch, runtime.GOARCH)
	}
	compareLedger(t, "fresh", got, want)

	hits, misses := cache.Hits(), cache.Misses()
	cached := ledger(t, sim.WithCache(cache))
	if cache.Misses() != misses || cache.Hits() == hits {
		t.Errorf("cached run: %d hits, %d misses; want all hits", cache.Hits()-hits, cache.Misses()-misses)
	}
	compareLedger(t, "cached", cached, want)
}

// ledger runs every registered experiment at ScaleTiny with opts and
// renders the ledger text.
func ledger(t *testing.T, opts ...sim.RunOption) string {
	t.Helper()
	var got strings.Builder
	fmt.Fprintf(&got, "goarch %s\n", runtime.GOARCH)
	for _, id := range sim.ExperimentIDs() {
		var nd bytes.Buffer
		sink := sweep.NewNDJSON(&nd)
		tables, err := sim.RunExperiment(id, sim.ScaleTiny, append(opts, sim.WithSinks(sink))...)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", id, err)
		}
		sum := sha256.Sum256(nd.Bytes())
		fmt.Fprintf(&got, "\n### %s ndjson-sha256 %s\n", id, hex.EncodeToString(sum[:]))
		for _, tbl := range tables {
			got.WriteString(tbl.String())
		}
	}
	return got.String()
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
