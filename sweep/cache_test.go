package sweep

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCacheRoundTrip(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Label: "cell", Seed: 9}
	metrics := []Metric{{Name: "mbps", Value: 1.5}}
	series := []Series{{Name: "trace", Values: []float64{1, 2, 3}}}

	if _, _, ok := cache.Get("fig9", sc); ok {
		t.Fatal("empty cache returned a hit")
	}
	if err := cache.Put("fig9", sc, metrics, series); err != nil {
		t.Fatal(err)
	}
	m, s, ok := cache.Get("fig9", sc)
	if !ok {
		t.Fatal("stored entry not found")
	}
	if len(m) != 1 || m[0] != metrics[0] {
		t.Errorf("metrics = %+v, want %+v", m, metrics)
	}
	if len(s) != 1 || s[0].Name != "trace" || len(s[0].Values) != 3 {
		t.Errorf("series = %+v", s)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", cache.Hits(), cache.Misses())
	}
}

func TestCacheKeysDiscriminate(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Label: "cell"}
	if err := cache.Put("fig9", sc, []Metric{{Name: "a", Value: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	// Same scenario under a different experiment: distinct entry.
	if _, _, ok := cache.Get("fig10", sc); ok {
		t.Error("experiment name not part of the key")
	}
	// Different label: distinct entry (labels appear in output).
	other := sc
	other.Label = "other"
	if _, _, ok := cache.Get("fig9", other); ok {
		t.Error("label not part of the key")
	}
	// A semantically equal scenario spelled differently pre-Defaults
	// hashes the same: the canonical form feeds the key.
	spelled := Scenario{Label: "cell", Seed: 1}
	if _, _, ok := cache.Get("fig9", spelled); !ok {
		t.Error("canonicalisation not applied before hashing")
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Label: "cell"}
	series := []Series{{Name: "trace", Values: []float64{1, 2}}}
	if err := cache.Put("fig9", sc, []Metric{{Name: "a", Value: 1}}, series); err != nil {
		t.Fatal(err)
	}
	path := cache.path("fig9", Canon(sc))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	missesWith := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		misses := cache.Misses()
		if _, _, ok := cache.Get("fig9", sc); ok {
			t.Errorf("%s: entry returned as hit", what)
		}
		if cache.Misses() != misses+1 {
			t.Errorf("%s: not counted as a miss", what)
		}
	}
	missesWith("not a record", []byte("{not json"))
	missesWith("empty", nil)
	for _, n := range []int{len(good) - 1, len(good) / 2, len(entryMagic)} {
		missesWith(fmt.Sprintf("truncated to %d bytes", n), good[:n])
	}
	for i := range good {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0xff
		missesWith(fmt.Sprintf("byte %d flipped", i), flipped)
	}
	missesWith("trailing garbage", append(bytes.Clone(good), 0))
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cache.Get("fig9", sc); !ok {
		t.Fatal("restored entry missed")
	}

	// A JSON entry left by an older release is never read, and a size
	// budget neither counts nor evicts it.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	legacy := strings.TrimSuffix(path, entrySuffix) + ".json"
	if err := os.WriteFile(legacy, []byte(`{"metrics":[{"name":"a","value":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	budgeted, err := OpenCache(dir, WithMaxBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := budgeted.Get("fig9", sc); ok {
		t.Error("legacy JSON entry was read")
	}
	if budgeted.Evictions() != 0 {
		t.Errorf("evictions = %d, want 0: the legacy file was counted", budgeted.Evictions())
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Errorf("legacy file touched: %v", err)
	}
}

func TestCachePutRejectsNonFinite(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Label: "cell"}
	cases := []struct {
		metrics []Metric
		series  []Series
		want    string
	}{
		{metrics: []Metric{{Name: "ok", Value: 1}, {Name: "rate", Value: math.NaN()}}, want: `metric "rate"`},
		{metrics: []Metric{{Name: "lat", Value: math.Inf(-1)}}, want: `metric "lat"`},
		{series: []Series{{Name: "queue", Values: []float64{0, math.Inf(1)}}}, want: `series "queue"`},
	}
	for _, c := range cases {
		err := cache.Put("fig9", sc, c.metrics, c.series)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Put error = %v, want one naming %s", err, c.want)
		}
	}
	if _, _, ok := cache.Get("fig9", sc); ok {
		t.Error("a rejected Put stored an entry")
	}
}

func TestHashStability(t *testing.T) {
	a := Hash("fig9", Scenario{Label: "x"})
	b := Hash("fig9", Scenario{Label: "x"})
	if a != b {
		t.Error("hash not deterministic")
	}
	if Hash("fig9", Scenario{Label: "x", Seed: 2}) == a {
		t.Error("seed does not feed the hash")
	}
	if len(a) != 64 {
		t.Errorf("hash length = %d, want 64 hex chars", len(a))
	}
}

// evictionEntrySize is the stored size of each entry evictionCache
// writes: every one holds a single metric named "v", so all are the same
// size whatever the format.
func evictionEntrySize(t *testing.T) int64 {
	t.Helper()
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Label: "size"}
	if err := cache.Put("exp", sc, []Metric{{Name: "v", Value: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(cache.path("exp", Canon(sc)))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// storedEntries lists the entry files in dir.
func storedEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// evictionCache opens a budgeted cache and stores n cells with explicit,
// strictly increasing modification times so the LRU order is unambiguous
// regardless of filesystem timestamp granularity.
func evictionCache(t *testing.T, dir string, maxBytes int64, n int) (*Cache, []Scenario) {
	t.Helper()
	cache, err := OpenCache(dir, WithMaxBytes(maxBytes))
	if err != nil {
		t.Fatal(err)
	}
	scs := make([]Scenario, n)
	for i := range scs {
		scs[i] = Scenario{Label: "cell", Seed: int64(i + 1)}
		if err := cache.Put("exp", scs[i], []Metric{{Name: "v", Value: float64(i)}}, nil); err != nil {
			t.Fatal(err)
		}
		at := time.Unix(1_700_000_000+int64(i)*10, 0)
		if err := os.Chtimes(cache.path("exp", Canon(scs[i])), at, at); err != nil {
			t.Fatal(err)
		}
	}
	return cache, scs
}

func TestCacheEvictsLRUOverBudget(t *testing.T) {
	dir := t.TempDir()
	// The budget fits two entries; storing five must evict the oldest.
	size := evictionEntrySize(t)
	budget := 2*size + size/2
	cache, scs := evictionCache(t, dir, budget, 4)
	// Re-trigger accounting/eviction with one more put after the mtimes
	// were pinned.
	extra := Scenario{Label: "extra", Seed: 99}
	if err := cache.Put("exp", extra, []Metric{{Name: "v", Value: 9}}, nil); err != nil {
		t.Fatal(err)
	}
	if cache.Evictions() == 0 {
		t.Fatal("no evictions despite exceeding the budget")
	}
	// Oldest entries gone, newest survive.
	if _, _, ok := cache.Get("exp", scs[0]); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, _, ok := cache.Get("exp", extra); !ok {
		t.Error("newest entry was evicted")
	}
	if cache.Hits() == 0 || cache.Misses() == 0 {
		t.Errorf("counters hits=%d misses=%d, want both > 0", cache.Hits(), cache.Misses())
	}
	// The surviving files must fit the budget.
	var total int64
	for _, e := range storedEntries(t, dir) {
		info, err := os.Stat(e)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > budget {
		t.Errorf("stored %d bytes, budget %d", total, budget)
	}
}

func TestCacheHitRefreshesLRU(t *testing.T) {
	dir := t.TempDir()
	// The budget fits two entries, so a third Put evicts one.
	size := evictionEntrySize(t)
	cache, scs := evictionCache(t, dir, 2*size+size/2, 2)
	// Touch the older entry via a hit, making the newer one the LRU
	// victim when the budget forces an eviction.
	if _, _, ok := cache.Get("exp", scs[0]); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	extra := Scenario{Label: "extra", Seed: 42}
	if err := cache.Put("exp", extra, []Metric{{Name: "v", Value: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cache.Get("exp", scs[0]); !ok {
		t.Error("recently hit entry was evicted")
	}
	if _, _, ok := cache.Get("exp", scs[1]); ok {
		t.Error("stale entry survived over the recently hit one")
	}
}

func TestCacheOpenScansExistingSize(t *testing.T) {
	dir := t.TempDir()
	evictionCache(t, dir, 1<<20, 3)
	// Re-open with a budget of one entry: the pre-existing entries must be
	// accounted and evicted down to fit immediately.
	size := evictionEntrySize(t)
	cache, err := OpenCache(dir, WithMaxBytes(size+size/2))
	if err != nil {
		t.Fatal(err)
	}
	if entries := storedEntries(t, dir); len(entries) != 1 {
		t.Errorf("entries after budgeted reopen = %d, want 1", len(entries))
	}
	if cache.Evictions() != 2 {
		t.Errorf("evictions = %d, want 2", cache.Evictions())
	}
}

func TestCacheUnlimitedNeverEvicts(t *testing.T) {
	cache, scs := evictionCache(t, t.TempDir(), 0, 5)
	if cache.Evictions() != 0 {
		t.Fatalf("evictions = %d with no budget", cache.Evictions())
	}
	for _, sc := range scs {
		if _, _, ok := cache.Get("exp", sc); !ok {
			t.Errorf("entry %v missing from unlimited cache", sc.Seed)
		}
	}
}
