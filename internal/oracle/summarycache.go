package oracle

import (
	"sync"

	"policyoracle/internal/policy"
)

// SummaryCache is a process-wide, cross-library cache of per-entry
// extraction results. It generalizes the incremental-extraction argument
// (see splice) from "previous version of this library" to "any library
// extracted in this process": an entry-point policy depends only
// on the extraction options and the IR of the methods its analysis
// visited, so when a target library presents an entry whose entire
// dependency cone hashes identically to a cached extraction, the cached
// policy is byte-identical to what a fresh analysis would produce and can
// be spliced in without running the analyzer.
//
// Forks and vendored copies of one API implementation share most method
// bodies verbatim, which is exactly the situation the paper's
// multi-implementation oracle creates: every library of a comparison is
// loaded into one process and extracted under one option set.
//
// A SummaryCache is safe for concurrent use and is opt-in: a nil
// *SummaryCache disables caching (DefaultOptions leaves it nil).
type SummaryCache struct {
	mu      sync.RWMutex
	entries map[cacheKey]*cachedEntry
	cap     int
	hits    uint64
	misses  uint64
}

// cacheKey identifies one cached entry extraction: the canonical option
// key (same notion as Library.ExtractedOpts) and the entry signature.
type cacheKey struct {
	opts string
	sig  string
}

// cachedEntry is one cached per-entry result: the policy, its dependency
// set, and the IR hash each dependency had when the entry was analyzed
// (hashes[i] pins deps[i]). The EntryPolicy is shared by every library
// the entry is spliced into and must never be mutated — the same
// immutability contract incremental extraction relies on when splicing
// policies across library versions.
type cachedEntry struct {
	deps   []string
	hashes []string
	ep     *policy.EntryPolicy
}

// DefaultSummaryCacheCap bounds the number of cached entries. The bound
// exists to keep long-running daemons from growing without limit;
// typical comparisons hold a few thousand entries.
const DefaultSummaryCacheCap = 16384

// NewSummaryCache returns an empty cache. maxEntries <= 0 uses
// DefaultSummaryCacheCap.
func NewSummaryCache(maxEntries int) *SummaryCache {
	if maxEntries <= 0 {
		maxEntries = DefaultSummaryCacheCap
	}
	return &SummaryCache{
		entries: make(map[cacheKey]*cachedEntry),
		cap:     maxEntries,
	}
}

// lookup returns the cached policy and dependency list for (optsKey, sig)
// when its dependency pins hold against cur, the target library's own
// method-hash table (see pinned).
func (c *SummaryCache) lookup(optsKey, sig string, cur map[string]string) (*policy.EntryPolicy, []string, bool) {
	c.mu.RLock()
	e := c.entries[cacheKey{opts: optsKey, sig: sig}]
	c.mu.RUnlock()
	ok := e != nil && pinned(e.deps, func(i int) (string, bool) { return e.hashes[i], true }, cur)
	c.mu.Lock()
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	return e.ep, e.deps, true
}

// insert stores one extracted entry, pinning the hash of every
// dependency. When the cache is full it is flushed wholesale: entries
// invalidate together (a new library version changes many hashes at
// once), so coarse eviction keeps the bookkeeping off the extraction
// path.
func (c *SummaryCache) insert(optsKey, sig string, deps []string, hashes map[string]string, ep *policy.EntryPolicy) {
	pins := make([]string, len(deps))
	for i, d := range deps {
		h, ok := hashes[d]
		if !ok {
			// A dependency without a hash (should not happen) can never
			// be validated; don't cache rather than risk unsound reuse.
			return
		}
		pins[i] = h
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.cap {
		c.entries = make(map[cacheKey]*cachedEntry)
	}
	c.entries[cacheKey{opts: optsKey, sig: sig}] = &cachedEntry{deps: deps, hashes: pins, ep: ep}
}

// Len returns the number of cached entries.
func (c *SummaryCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Stats returns the cumulative hit and miss counts.
func (c *SummaryCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}
