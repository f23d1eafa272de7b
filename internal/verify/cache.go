// Walk caching: the checker's walks are pure functions of the FIB/link
// state at the routers on their path, so a walk stays valid until one of
// those routers changes. The cache tracks per-router invalidation epochs
// and revalidates each stored walk against the routers its recorded Path
// traversed — the dependency set is captured for free by the walker — once
// per invalidation epoch, not once per lookup.

package verify

import (
	"net/netip"
	"sync"
	"sync/atomic"

	"hbverify/internal/dataplane"
)

type cachedWalk struct {
	walk  dataplane.Walk
	epoch uint64
}

// WalkCache stores finished data-plane walks keyed by (source, probe
// header) with epoch-based invalidation. InvalidateRouter marks one
// router's state changed; a stored walk survives only if every router on
// its path was last invalidated at or before the walk's own epoch. Safe
// for concurrent use.
type WalkCache struct {
	mu      sync.Mutex
	epoch   uint64
	touched map[string]uint64 // router -> epoch of its last invalidation
	walks   map[WalkKey]cachedWalk

	hits   atomic.Int64
	misses atomic.Int64
}

// NewWalkCache returns an empty cache.
func NewWalkCache() *WalkCache {
	return &WalkCache{touched: map[string]uint64{}, walks: map[WalkKey]cachedWalk{}}
}

// InvalidateRouter records that router's forwarding state changed: every
// cached walk traversing it is now stale. Walks not touching the router
// remain valid.
func (c *WalkCache) InvalidateRouter(router string) {
	c.mu.Lock()
	c.epoch++
	c.touched[router] = c.epoch
	c.mu.Unlock()
}

// Stats reports cumulative lookup hits and misses since construction — the
// serving layer's cache-hit ratio comes straight from here.
func (c *WalkCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of stored walks (valid or not).
func (c *WalkCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.walks)
}

// Begin returns the epoch new walks started now should be stamped with.
// Whoever executes walks (the checker, the query engine) calls Begin before
// reading the cache and passes the epoch back to Store, so an invalidation
// racing with the run stamps the stored walks as already stale.
func (c *WalkCache) Begin() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Lookup returns the cached walk for (source, dst) if it is still valid: no
// router on its path invalidated since it was stored. Stale entries are
// evicted on the way out. An entry older than the cache's epoch that passes
// the path check is re-stamped with the current epoch: the check covered
// every invalidation up to it, so until the next one a hit is one map read.
func (c *WalkCache) Lookup(source string, dst netip.Addr) (dataplane.Walk, bool) {
	k := WalkKey{Source: source, Dst: dst}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.walks[k]
	if !ok {
		c.misses.Add(1)
		return dataplane.Walk{}, false
	}
	if e.epoch < c.epoch {
		for _, r := range e.walk.Path {
			if c.touched[r] > e.epoch {
				delete(c.walks, k)
				c.misses.Add(1)
				return dataplane.Walk{}, false
			}
		}
		e.epoch = c.epoch
		c.walks[k] = e
	}
	c.hits.Add(1)
	return e.walk, true
}

// Store records a walk computed at the epoch returned by Begin, unless an
// existing entry is newer — stored later, or re-stamped by Lookup. A walk
// whose path was invalidated while it ran is stored already stale, and
// Lookup never serves it.
func (c *WalkCache) Store(source string, dst netip.Addr, w dataplane.Walk, epoch uint64) {
	k := WalkKey{Source: source, Dst: dst}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.walks[k]; ok && e.epoch > epoch {
		return
	}
	c.walks[k] = cachedWalk{walk: w, epoch: epoch}
}
