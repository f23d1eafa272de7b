package verify

import (
	"reflect"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/network"
)

// cachedChecker wires a checker the way the pipeline does: walk cache
// attached, every router's FIB changes invalidating that router.
func cachedChecker(pn *network.PaperNet) (*Checker, *WalkCache) {
	c := checker(pn)
	cache := NewWalkCache()
	c.Cache = cache
	for _, r := range pn.Routers() {
		name := r.Name
		r.FIB.OnChange(func(fib.Update) { cache.InvalidateRouter(name) })
	}
	pn.OnLinkChange(func(a, b string, up bool) {
		cache.InvalidateRouter(a)
		cache.InvalidateRouter(b)
	})
	return c, cache
}

func paperPolicies(pn *network.PaperNet) []Policy {
	return []Policy{
		paperPolicy(pn),
		{Kind: NoLoop, Prefix: pn.P},
		{Kind: NoBlackhole, Prefix: pn.P},
		{Kind: Reachable, Prefix: pn.P},
	}
}

func TestWalkCacheReuse(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	c, _ := cachedChecker(pn)
	pols := paperPolicies(pn)

	first := c.Check(pols)
	if first.Walks == 0 || first.Cached != 0 {
		t.Fatalf("cold run: walks=%d cached=%d, want all executed", first.Walks, first.Cached)
	}
	second := c.Check(pols)
	if second.Walks != 0 || second.Cached != first.Walks {
		t.Fatalf("warm run: walks=%d cached=%d, want 0/%d", second.Walks, second.Cached, first.Walks)
	}
	if !reflect.DeepEqual(first.Violations, second.Violations) {
		t.Fatalf("cached verdicts differ: %v vs %v", first.Violations, second.Violations)
	}
}

// TestWalkCacheInvalidationTracksChanges mutates the control plane and
// requires the cached checker to agree with a cold checker afterwards —
// the differential property the scenario oracle enforces per round.
func TestWalkCacheInvalidationTracksChanges(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	c, _ := cachedChecker(pn)
	pols := paperPolicies(pn)
	c.Check(pols)

	// The Fig. 2 misconfiguration: r2 prefers e1, FIBs shift everywhere.
	if _, err := pn.UpdateConfig("r2", "lp 10", func(cfg *config.Router) {
		cfg.BGP.Neighbors[len(cfg.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}

	warm := c.Check(pols)
	cold := checker(pn).Check(pols)
	if !reflect.DeepEqual(warm.Violations, cold.Violations) {
		t.Fatalf("cached checker missed the change: %v vs cold %v", warm.Violations, cold.Violations)
	}
	if warm.Walks == 0 {
		t.Fatal("no walks re-executed although FIBs changed")
	}
}

// TestWalkCacheLinkFlip covers the path with no FIB update: a link flip
// must still invalidate walks through its endpoints.
func TestWalkCacheLinkFlip(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	c, _ := cachedChecker(pn)
	pols := paperPolicies(pn)
	c.Check(pols)

	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	warm := c.Check(pols)
	cold := checker(pn).Check(pols)
	if !reflect.DeepEqual(warm.Violations, cold.Violations) {
		t.Fatalf("cached checker stale after link flip: %v vs cold %v", warm.Violations, cold.Violations)
	}
}

func TestWalkCacheFlush(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	c, cache := cachedChecker(pn)
	pols := paperPolicies(pn)
	first := c.Check(pols)
	cache.Flush()
	again := c.Check(pols)
	if again.Walks != first.Walks || again.Cached != 0 {
		t.Fatalf("post-flush run: walks=%d cached=%d, want %d/0", again.Walks, again.Cached, first.Walks)
	}
}

// TestWalkCacheEpochs exercises the cache's epoch rules directly:
// path-scoped invalidation, and the floor that stops in-flight results
// from repopulating a flushed cache.
func TestWalkCacheEpochs(t *testing.T) {
	c := NewWalkCache()
	src, dst := "a", addr("10.0.0.1")
	w := dataplane.Walk{Dst: addr("10.0.0.1"), Path: []string{"a", "b"}}

	c.Store(src, dst, w, c.Begin())
	if _, ok := c.Lookup(src, dst); !ok {
		t.Fatal("miss immediately after put")
	}
	c.InvalidateRouter("z") // not on the walk's path
	if _, ok := c.Lookup(src, dst); !ok {
		t.Fatal("unrelated invalidation evicted the walk")
	}
	c.InvalidateRouter("b")
	if _, ok := c.Lookup(src, dst); ok {
		t.Fatal("walk through an invalidated router survived")
	}

	stale := c.Begin()
	c.Flush()
	c.Store(src, dst, w, stale) // an in-flight check finishing after the flush
	if _, ok := c.Lookup(src, dst); ok {
		t.Fatal("pre-flush result repopulated the cache")
	}
	c.Store(src, dst, w, c.Begin())
	if _, ok := c.Lookup(src, dst); !ok {
		t.Fatal("fresh post-flush put missing")
	}
}
