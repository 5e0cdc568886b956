package core

import (
	"math"
	"sync"

	"h2ds/internal/pointset"
	"h2ds/internal/sample"
	"h2ds/internal/tree"
)

// DefaultBuildCacheEntries is the construction-cache capacity used when a
// caller asks for one without sizing it. Trees and hierarchies are index
// structures (a few MB at n=20k), so a handful of geometries is cheap to
// retain.
const DefaultBuildCacheEntries = 4

// BuildCache shares the kernel-independent half of a data-driven build —
// the spatial tree (point ordering) and the Algorithm 1 sampling hierarchy —
// across builds over the same geometry: other tenants on the same point
// set, hot-swap rebuilds of one tenant, and reltol re-builds that keep the
// sampling parameters; it is the one way to reuse a tree and a hierarchy
// (Config.Cache). Both cached structures are immutable after construction,
// so every matrix built on a hit shares them and a hit costs no copying.
//
// Entries are keyed by a fingerprint of everything Algorithm 1's output
// depends on: the point coordinate bytes (order included), dimension, leaf
// size, admissibility parameter, sampler identity (sample.Key, which folds
// in sampler seeds), and sample budget. The kernel is deliberately absent —
// sampling never evaluates it (paper §VI-A), which is what makes the cache
// valid across tenants with different kernels.
//
// The zero value is not usable; construct with NewBuildCache. All methods
// are safe for concurrent use.
type BuildCache struct {
	mu      sync.Mutex
	cap     int
	order   []uint64 // LRU order, most recently used last
	entries map[uint64]*buildCacheEntry
	hits    int64
	misses  int64
}

type buildCacheEntry struct {
	n, dim int
	tree   *tree.Tree
	hier   *sample.Hierarchy
}

// NewBuildCache returns a cache retaining up to entries geometries
// (entries <= 0 means DefaultBuildCacheEntries).
func NewBuildCache(entries int) *BuildCache {
	if entries <= 0 {
		entries = DefaultBuildCacheEntries
	}
	return &BuildCache{cap: entries, entries: make(map[uint64]*buildCacheEntry)}
}

// Stats reports cumulative hit/miss counts and the current entry count.
func (c *BuildCache) Stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

func (c *BuildCache) lookup(fp uint64, n, dim int) (*tree.Tree, *sample.Hierarchy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if !ok || e.n != n || e.dim != dim {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	c.touch(fp)
	return e.tree, e.hier, true
}

func (c *BuildCache) insert(fp uint64, n, dim int, tr *tree.Tree, h *sample.Hierarchy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[fp]; ok {
		c.touch(fp)
		return
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, old)
	}
	c.entries[fp] = &buildCacheEntry{n: n, dim: dim, tree: tr, hier: h}
	c.order = append(c.order, fp)
}

// touch moves fp to the most-recently-used position. Callers hold mu.
func (c *BuildCache) touch(fp uint64) {
	for i, v := range c.order {
		if v == fp {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), fp)
			return
		}
	}
}

// constructionFingerprint hashes (FNV-1a, 64-bit) every input the
// tree+sampling half of a build depends on. Worker count is excluded: the
// sweep's output is deterministic regardless of parallelism.
func constructionFingerprint(pts *pointset.Points, cfg Config) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	word(uint64(pts.Dim))
	word(uint64(pts.Len()))
	for _, v := range pts.Coords {
		word(math.Float64bits(v))
	}
	word(uint64(cfg.LeafSize))
	word(math.Float64bits(cfg.Eta))
	word(uint64(cfg.SampleBudget))
	key := sample.Key(cfg.Sampler)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}
