//go:build unix

package sweep

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAllocBudgetCacheHit pins the objects a warm hit allocates: two to
// name its file — the path, built in one append under the directory
// OpenCache cleaned, and syscall.Open's NUL-terminated copy of it — and
// one per decoded slice, here the metrics, the series and its values.
// Naming took three more while the path was a concatenation through
// filepath.Join with the hash as a string of its own.
func TestAllocBudgetCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned without -short (and so without -race); CI runs this by name")
	}
	dir := t.TempDir()
	// A directory that needs cleaning, cleaned once at open.
	cache, err := OpenCache(dir + "/./cells/")
	if err != nil {
		t.Fatal(err)
	}
	sc := Canon(Scenario{Label: "hit", Seed: 3})
	if err := cache.PutCanonical("fig7", sc, []Metric{{Name: "mbps", Value: 1}}, []Series{{Name: "trace", Values: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cells", "fig7-"+Hash("fig7", sc.sc)+entrySuffix)); err != nil {
		t.Fatalf("entry not where filepath.Join puts it: %v", err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, _, ok := cache.GetCanonical("fig7", sc); !ok {
			t.Fatal("warm Get missed")
		}
	})
	if got != 5 {
		t.Errorf("warm hit allocates %v objects, want 5", got)
	}
}
