package service

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// diskCache bounds the -cache-dir layer: PR 4 shipped it unbounded, so a
// long-lived server under distinct-spec traffic (sweep variants, fuzzed
// seeds) would eventually fill the disk. The bound is an entry-count cap
// plus a total-byte cap, enforced together with oldest-first (FIFO)
// eviction — an evicted entry is simply recomputed (and re-persisted) on
// the next miss, so eviction can never be wrong, only slow. Writes keep
// the tmp+rename protocol from artifacts.save, so a crash mid-eviction or
// mid-write still never leaves a half-written entry behind. Each entry is
// one file named by its cache key, and the byte bound counts the files'
// sizes, headers included.
//
// Ordering: entries written this process are ordered by write time;
// entries found on disk at startup are ordered by file mtime, which is
// when their rename landed. The in-memory ledger (order, sizes) is
// authoritative afterwards — loadArtifacts races with a concurrent
// eviction at worst read a vanishing file and report a miss.
type diskCache struct {
	dir        string
	maxEntries int   // <0 = unbounded
	maxBytes   int64 // <0 = unbounded

	mu    sync.Mutex
	order []string // entry keys, oldest first
	sizes map[string]int64
	total int64
}

// newDiskCache opens the bound over dir, adopting the entry files a
// previous process persisted (oldest first by mtime), sweeping stale
// ".tmp-" write debris a crash may have left, and trimming anything beyond
// the configured caps immediately so a restarted server starts within
// bounds. A directory is an entry in the directory-per-entry layout of
// earlier builds: it is removed unread, so the first start after an
// upgrade has a cold disk cache.
func newDiskCache(dir string, maxEntries int, maxBytes int64) *diskCache {
	c := &diskCache{dir: dir, maxEntries: maxEntries, maxBytes: maxBytes, sizes: make(map[string]int64)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return c // nothing persisted yet; MkdirAll happens at first save
	}
	type found struct {
		key  string
		size int64
		mod  int64
	}
	var adopt []found
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") || e.IsDir() {
			os.RemoveAll(filepath.Join(dir, e.Name()))
			continue
		}
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		adopt = append(adopt, found{key: e.Name(), size: info.Size(), mod: info.ModTime().UnixNano()})
	}
	sort.Slice(adopt, func(i, j int) bool { return adopt[i].mod < adopt[j].mod })
	for _, f := range adopt {
		c.order = append(c.order, f.key)
		c.sizes[f.key] = f.size
		c.total += f.size
	}
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return c
}

// record registers a freshly persisted entry of the given byte size (the
// writer already knows it: save returns the size of the file it renamed
// into place, so nothing is stat'ed under the lock) and evicts the oldest
// entries beyond the caps.
// Re-recording a key (a concurrent writer lost the rename race, or a
// recompute after memory eviction re-saved the same content-addressed
// bytes) keeps the original position. Safe on a nil receiver so call
// sites need no disk-layer-enabled guard.
func (c *diskCache) record(key string, size int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sizes[key]; ok {
		return
	}
	c.order = append(c.order, key)
	c.sizes[key] = size
	c.total += size
	c.evictLocked()
}

// evictLocked removes oldest-first until both caps hold. Caller holds
// c.mu; removal I/O happens under the lock, which is fine off the hot
// path (eviction is one unlink per displaced entry).
func (c *diskCache) evictLocked() {
	for len(c.order) > 0 {
		overEntries := c.maxEntries >= 0 && len(c.order) > c.maxEntries
		overBytes := c.maxBytes >= 0 && c.total > c.maxBytes
		if !overEntries && !overBytes {
			return
		}
		oldest := c.order[0]
		c.order = c.order[1:]
		c.total -= c.sizes[oldest]
		delete(c.sizes, oldest)
		os.Remove(filepath.Join(c.dir, oldest))
	}
}

// forget evicts one entry by key — the corruption path: a load that found
// a damaged entry removes it from the ledger and the filesystem so the
// next miss recomputes into a clean entry. Safe on a nil receiver and on
// keys the ledger never tracked (the file is removed regardless, so a
// corrupt entry found before the disk layer adopted it is still cleared).
func (c *diskCache) forget(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.sizes[key]; ok {
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.total -= c.sizes[key]
		delete(c.sizes, key)
	}
	c.mu.Unlock()
	os.Remove(filepath.Join(c.dir, key))
}

// stats reports the tracked entry count and total bytes, for /metrics.
// Safe on a nil receiver (disk layer disabled): both gauges read zero.
func (c *diskCache) stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order), c.total
}
