package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hashVersion feeds the cache key so a deliberate format break (changed
// metric semantics, changed Scenario canonicalisation) can invalidate
// every existing entry at once. v2: the engine's same-instant delivery
// order became canonical (time, source, sequence) when the sharded
// engine landed, which can shift tie-broken metrics relative to v1 runs.
// v3: Scenario lost its adaptive-difficulty flag (the step controller
// became the stepped-puzzles defense), so every canonical serialisation
// changed.
const hashVersion = "tcppuzzles-sweep-v3"

// Hash returns the content address of one experiment cell: a SHA-256 over
// the hash format version, the experiment name, and the canonical
// (post-Defaults) Scenario serialised as JSON. Every Scenario field —
// including Label — feeds the hash, so two cells collide only when they
// would simulate identically and report identically. Adding a field to
// Scenario changes every hash, which safely turns old cache entries into
// misses (wipe the cache directory to reclaim the space). Fields tagged
// json:"-" stay out of the key (see scenarioHashExclusions).
//
// Registered strategy fingerprints extend the key: a defense or attack
// plugin with a non-empty fingerprint (see RegisterDefenseFingerprint)
// appends it after the canonical scenario, so new plugins mint new cache
// identities and invalidate themselves by bumping the fingerprint. The
// paper's four defenses and four floods register none, keeping their
// hashes byte-for-byte what they were before the plugin registry existed.
func Hash(experiment string, sc Scenario) string {
	canonicalScenario := sc.Defaults()
	canonical, err := json.Marshal(canonicalScenario)
	if err != nil {
		// Marshal fails only on non-finite floats (NaN/Inf rates). Fall
		// back to the fmt representation, which formats those fine and
		// still distinguishes scenarios, so no two cells share a key.
		canonical = []byte(fmt.Sprintf("%#v", canonicalScenario))
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", hashVersion, experiment)
	h.Write(canonical)
	if fp := DefenseFingerprint(canonicalScenario.Defense); fp != "" {
		fmt.Fprintf(h, "\ndefense-fingerprint: %s", fp)
	}
	if fp := AttackFingerprint(canonicalScenario.Attack); fp != "" {
		fmt.Fprintf(h, "\nattack-fingerprint: %s", fp)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a disk-backed, content-addressed store of completed cell
// results, keyed by Hash. Each entry is one file holding the metrics and
// series of one cell as a checksummed binary record (see entry.go), so
// concurrent writers never contend, a hit parses no text, and a cache
// directory can be shared between figure regenerations: any cell whose
// canonical scenario already ran is skipped entirely.
//
// With WithMaxBytes the cache maintains itself: it accounts entry sizes
// and evicts least-recently-used entries (hits refresh recency) whenever
// the total would exceed the budget. Accounting is per-process best
// effort — concurrent processes sharing a directory may transiently
// overshoot the budget until the next Put rescans.
type Cache struct {
	dir          string
	maxBytes     int64
	hits, misses atomic.Int64
	evictions    atomic.Int64

	// mu guards size accounting and eviction sweeps.
	mu   sync.Mutex
	size int64
}

// CacheOption tunes a Cache at open time.
type CacheOption func(*Cache)

// WithMaxBytes bounds the total size of stored entries; exceeding Puts
// trigger LRU eviction. Zero (the default) stores entries forever.
func WithMaxBytes(n int64) CacheOption {
	return func(c *Cache) { c.maxBytes = n }
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string, opts ...CacheOption) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache: %w", err)
	}
	c := &Cache{dir: dir}
	for _, opt := range opts {
		opt(c)
	}
	if c.maxBytes > 0 {
		c.mu.Lock()
		c.rescanAndEvictLocked()
		c.mu.Unlock()
	}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// entrySuffix names stored entries. Files of any other name in the
// directory, including the JSON entries of older releases, are neither
// read nor counted against the size budget.
const entrySuffix = ".entry"

func (c *Cache) path(experiment string, sc Scenario) string {
	return filepath.Join(c.dir, experiment+"-"+Hash(experiment, sc)+entrySuffix)
}

// Get returns the stored metrics and series for the cell, if present.
// Unreadable, truncated or corrupt entries count as misses. Hits refresh
// the entry's recency for LRU eviction.
func (c *Cache) Get(experiment string, sc Scenario) ([]Metric, []Series, bool) {
	path := c.path(experiment, sc)
	data, err := os.ReadFile(path)
	if err != nil {
		c.misses.Add(1)
		return nil, nil, false
	}
	metrics, series, ok := decodeEntry(data)
	if !ok {
		c.misses.Add(1)
		return nil, nil, false
	}
	c.hits.Add(1)
	if c.maxBytes > 0 {
		// Touch for LRU; best effort (a raced eviction just re-misses).
		//tcpz:allow nodeterm — wall clock only refreshes the cache file's mtime for LRU eviction; cached results never depend on it
		now := time.Now()
		_ = os.Chtimes(path, now, now)
	}
	return metrics, series, true
}

// Put stores the cell's metrics and series. The write is atomic (temp
// file + rename) so concurrent readers never observe a partial entry; when
// a size budget is set, least-recently-used entries are evicted to fit.
// A NaN or infinite value is an error naming its metric or series.
func (c *Cache) Put(experiment string, sc Scenario, metrics []Metric, series []Series) error {
	data, err := encodeEntry(metrics, series)
	if err != nil {
		return fmt.Errorf("sweep: cache: %w", err)
	}
	path := c.path(experiment, sc)
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("sweep: cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache: %w", err)
	}
	if c.maxBytes > 0 {
		c.mu.Lock()
		// Rescan rather than accumulate: overwrites and concurrent
		// writers make incremental accounting drift.
		c.rescanAndEvictLocked()
		c.mu.Unlock()
	}
	return nil
}

// rescanAndEvictLocked lists the stored entries once, refreshes the size
// accounting from the listing, and evicts down to the budget.
func (c *Cache) rescanAndEvictLocked() {
	files := c.entriesLocked()
	c.size = 0
	for _, f := range files {
		c.size += f.size
	}
	c.evictLocked(files)
}

type cacheFile struct {
	name  string
	size  int64
	mtime time.Time
}

// entriesLocked lists stored entries (entrySuffix files; in-flight ".put-*"
// temp files are excluded).
func (c *Cache) entriesLocked() []cacheFile {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil
	}
	var out []cacheFile
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), entrySuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, cacheFile{name: de.Name(), size: info.Size(), mtime: info.ModTime()})
	}
	return out
}

// evictLocked removes least-recently-used entries from the given listing
// until the cache fits its budget. Ties on modification time break by
// name so eviction order is reproducible.
func (c *Cache) evictLocked(files []cacheFile) {
	if c.maxBytes <= 0 || c.size <= c.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].name < files[j].name
	})
	for _, f := range files {
		if c.size <= c.maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(c.dir, f.name)); err != nil {
			continue
		}
		c.size -= f.size
		c.evictions.Add(1)
	}
}

// Hits returns how many Gets found a stored entry.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns how many Gets found nothing (or a corrupt entry).
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Evictions returns how many entries the size budget has removed.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }
