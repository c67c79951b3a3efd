package sweep

import (
	"cmp"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ledger is the output ledger: the pinned tables and NDJSON digests of
// every registered experiment at tiny scale (see TestExperimentLedger).
//
//go:embed testdata/experiments.golden
var ledger []byte

// ledgerDigest is the version line of every cache key: the SHA-256 of the
// output ledger, taken once per process. Re-blessing the ledger, which an
// intended move of any pinned output byte requires, therefore changes
// every key, and stale entries turn into misses with no further step. A
// change that moves output the ledger does not cover moves no key.
var ledgerDigest = digest(ledger)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Hash returns the content address of one experiment cell: a SHA-256 over
// the output ledger's digest, the experiment name, and the canonical
// (post-Defaults) Scenario's one encoding (Canon). Every Scenario field —
// including Label and the defense and attack names — feeds the hash, so
// two cells collide only when they would simulate identically and report
// identically. Adding a field to Scenario changes every hash, which
// safely turns old cache entries into misses (wipe the cache directory to
// reclaim the space). Fields tagged json:"-" stay out of the key (the
// tests pin each in scenarioHashExclusions, with its reason).
func Hash(experiment string, sc Scenario) string {
	return hashAt(ledgerDigest, experiment, sc)
}

// hashAt is Hash under an explicit version line.
func hashAt(version, experiment string, sc Scenario) string {
	return string(Canon(sc).appendHash(nil, version, experiment))
}

// Canonical is a canonical scenario with its one encoding, which a cell's
// cache key hashes and its NDJSON record carries (Stream.Emit).
type Canonical struct {
	sc   Scenario
	json []byte // nil when sc does not encode
}

// Canon returns sc's canonical form and its encoding.
func Canon(sc Scenario) Canonical {
	sc = sc.Defaults()
	b, _ := encodeScenario(sc)
	return Canonical{sc, b}
}

// encodeScenario is the one function that encodes a Scenario. Its
// specification is json.Marshal(sc), bytes and error (a NaN or infinite
// rate), which TestEncodeScenarioMatchesJSON holds it to; it appends the
// fields itself so that a warm cell's cache key costs no reflection.
func encodeScenario(sc Scenario) ([]byte, error) {
	b := appendJSONString(append(make([]byte, 0, 512), `{"Label":`...), sc.Label)
	b = strconv.AppendInt(append(b, `,"Duration":`...), int64(sc.Duration), 10)
	b = strconv.AppendInt(append(b, `,"AttackStart":`...), int64(sc.AttackStart), 10)
	b = strconv.AppendInt(append(b, `,"AttackStop":`...), int64(sc.AttackStop), 10)
	b = strconv.AppendInt(append(b, `,"Bucket":`...), int64(sc.Bucket), 10)
	b = strconv.AppendInt(append(b, `,"NumClients":`...), int64(sc.NumClients), 10)
	b, err := appendJSONFloat(append(b, `,"ClientRate":`...), sc.ClientRate)
	b = strconv.AppendInt(append(b, `,"RequestBytes":`...), int64(sc.RequestBytes), 10)
	b = strconv.AppendBool(append(b, `,"ClientsSolve":`...), sc.ClientsSolve)
	b = appendJSONString(append(b, `,"Defense":`...), string(sc.Defense))
	b = strconv.AppendUint(append(b, `,"Params":{"K":`...), uint64(sc.Params.K), 10)
	b = strconv.AppendUint(append(b, `,"M":`...), uint64(sc.Params.M), 10)
	b = strconv.AppendUint(append(b, `,"L":`...), uint64(sc.Params.L), 10)
	b = strconv.AppendBool(append(b, `},"AlwaysChallenge":`...), sc.AlwaysChallenge)
	b = strconv.AppendInt(append(b, `,"Workers":`...), int64(sc.Workers), 10)
	b = strconv.AppendInt(append(b, `,"Backlog":`...), int64(sc.Backlog), 10)
	b = strconv.AppendInt(append(b, `,"AcceptBacklog":`...), int64(sc.AcceptBacklog), 10)
	b = appendJSONString(append(b, `,"Attack":`...), string(sc.Attack))
	b = strconv.AppendInt(append(b, `,"BotCount":`...), int64(sc.BotCount), 10)
	b, botErr := appendJSONFloat(append(b, `,"PerBotRate":`...), sc.PerBotRate)
	b = strconv.AppendBool(append(b, `,"BotsSolve":`...), sc.BotsSolve)
	b = strconv.AppendInt(append(b, `,"BotMaxSolveBacklog":`...), int64(sc.BotMaxSolveBacklog), 10)
	if sc.MacroSources != 0 {
		b = strconv.AppendInt(append(b, `,"MacroSources":`...), int64(sc.MacroSources), 10)
	}
	b = strconv.AppendInt(append(b, `,"Seed":`...), sc.Seed, 10)
	if err = cmp.Or(err, botErr); err != nil { // the first, as json reports
		return nil, err
	}
	return append(b, '}'), nil
}

func (c Canonical) appendHash(dst []byte, version, experiment string) []byte {
	canonical := c.json
	if canonical == nil {
		// Encoding fails only on non-finite floats (NaN/Inf rates). Fall
		// back to the fmt representation, which formats those fine and
		// still distinguishes scenarios, so no two cells share a key.
		canonical = []byte(fmt.Sprintf("%#v", c.sc))
	}
	// The version line, the experiment line and the encoding, on the stack.
	var buf [1024]byte
	b := append(append(append(append(buf[:0], version...), '\n'), experiment...), '\n')
	sum := sha256.Sum256(append(b, canonical...))
	return hex.AppendEncode(dst, sum[:])
}

// Cache is a disk-backed, content-addressed store of completed cell
// results, keyed by Hash. Each entry is one file holding the metrics and
// series of one cell as a checksummed binary record (see entry.go), so
// concurrent writers never contend, a hit parses no text, and a cache
// directory can be shared between figure regenerations: any cell whose
// canonical scenario already ran is skipped entirely.
//
// A hit hashes the cell's encoding to its file name, reads the file into a
// pooled buffer with one open, one read and one close on unix (os.ReadFile
// elsewhere), and decodes it, names from a table of those read before.
//
// With WithMaxBytes the cache maintains itself: it accounts entry sizes
// and evicts least-recently-used entries (hits refresh recency) whenever
// the total would exceed the budget. Accounting is per-process best
// effort — concurrent processes sharing a directory may transiently
// overshoot the budget until the next Put rescans.
type Cache struct {
	// dir is as OpenCache cleaned it, prefix dir and a separator.
	dir, prefix  string
	maxBytes     int64
	hits, misses atomic.Int64
	evictions    atomic.Int64

	// mu guards size accounting and eviction sweeps.
	mu   sync.Mutex
	size int64

	names nameTable
}

// entryBufs holds the buffers hits read entries into. A buffer grown past
// maxPooledEntry by an unusually large entry is dropped, not kept.
var entryBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

const maxPooledEntry = 256 << 10

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
	c := &Cache{dir: filepath.Clean(dir)}
	c.prefix = strings.TrimSuffix(c.dir, string(filepath.Separator)) + string(filepath.Separator)
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

// path names the cell's entry file, <experiment>-<hash>.entry under
// prefix, in one string: what filepath.Join makes of the cleaned
// directory and a name that holds no separator.
func (c *Cache) path(experiment string, sc Canonical) string {
	var buf [512]byte
	b := append(append(append(buf[:0], c.prefix...), experiment...), '-')
	return string(append(sc.appendHash(b, ledgerDigest, experiment), entrySuffix...))
}

// Get returns the stored metrics and series for the cell, if present.
// Unreadable, truncated or corrupt entries count as misses. Hits refresh
// the entry's recency for LRU eviction.
func (c *Cache) Get(experiment string, sc Scenario) ([]Metric, []Series, bool) {
	return c.GetCanonical(experiment, Canon(sc))
}

// GetCanonical is Get keyed by a cell's one encoding.
func (c *Cache) GetCanonical(experiment string, sc Canonical) ([]Metric, []Series, bool) {
	path := c.path(experiment, sc)
	buf := entryBufs.Get().(*[]byte)
	data, err := readFile(path, (*buf)[:0])
	metrics, series, ok := decodeEntry(data, &c.names) // nil data: a miss
	if err == nil && cap(data) <= maxPooledEntry {
		*buf = data
	}
	entryBufs.Put(buf)
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
	return c.PutCanonical(experiment, Canon(sc), metrics, series)
}

// PutCanonical is Put keyed by a cell's one encoding.
func (c *Cache) PutCanonical(experiment string, sc Canonical, metrics []Metric, series []Series) error {
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
		if err := os.Remove(c.prefix + f.name); err != nil {
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
