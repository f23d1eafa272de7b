package verify

import (
	"net/netip"
	"sync"
	"testing"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/route"
)

// TestParallelCheckUnderFIBChurn runs the parallel checker from several
// goroutines while a mutator churns one router's live FIB — exactly the
// §5 deployment where verification ticks race with control-plane
// convergence. Run under -race: it exercises the fib.Table RWMutex, the
// walk worker pool, and the metrics registry together.
func TestParallelCheckUnderFIBChurn(t *testing.T) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	tables := map[string]*fib.Table{}
	for _, r := range pn.Routers() {
		tables[r.Name] = r.FIB
	}
	w := dataplane.NewWalker(pn.Topo, pn.Live())
	checker := NewChecker(w, []string{"r1", "r2", "r3"})
	checker.Workers = 8
	checker.Metrics = metrics.NewRegistry()

	churnPrefix := netip.MustParsePrefix("55.0.0.0/24")
	policies := []Policy{
		{Kind: Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: NoLoop, Prefix: pn.P},
		{Kind: NoBlackhole, Prefix: pn.P},
		{Kind: NoLoop, Prefix: churnPrefix},
	}

	stop := make(chan struct{})
	var mutWg sync.WaitGroup
	mutWg.Add(1)
	go func() {
		defer mutWg.Done()
		r1 := tables["r1"]
		rt := route.Route{
			Prefix: churnPrefix, Proto: route.ProtoStatic,
			NextHop: netip.MustParseAddr("10.0.12.2"),
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			r1.Offer(rt)
			r1.Withdraw(route.ProtoStatic, churnPrefix)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rep := checker.Check(policies)
				// The paper-network policies must hold regardless of the
				// unrelated churn prefix's state.
				for _, v := range rep.Violations {
					if v.Policy.Prefix == pn.P {
						t.Errorf("stable policy violated during churn: %v", v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	mutWg.Wait()

	if got := checker.Metrics.Counter("verify.checks").Value(); got == 0 {
		t.Fatal("metrics did not record any checks")
	}
}

// TestCachedCheckUnderInvalidation races concurrent cached Checks against
// per-router invalidations of every source. Correctness here is the cache
// never serving a walk staler than its own epoch accounting claims; under
// -race it also proves WalkCache's locking composes with the worker pool.
func TestCachedCheckUnderInvalidation(t *testing.T) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	w := dataplane.NewWalker(pn.Topo, pn.Live())
	checker := NewChecker(w, []string{"r1", "r2", "r3"})
	checker.Workers = 8
	checker.Metrics = metrics.NewRegistry()
	checker.Cache = NewWalkCache()

	policies := []Policy{
		{Kind: Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: NoLoop, Prefix: pn.P},
		{Kind: NoBlackhole, Prefix: pn.P},
	}

	stop := make(chan struct{})
	var invWg sync.WaitGroup
	invWg.Add(1)
	go func() {
		defer invWg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				checker.Cache.InvalidateRouter("r1")
			case 1:
				checker.Cache.InvalidateRouter("r3")
			case 2:
				checker.Cache.InvalidateRouter("r2")
			}
			i++
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rep := checker.Check(policies)
				// FIBs are quiescent, so regardless of cache hits or misses
				// every verdict must stay clean.
				if len(rep.Violations) != 0 {
					t.Errorf("violation under invalidation churn: %v", rep.Violations[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	invWg.Wait()
}

// TestSymbolicWalksUnderSetChurn races cached symbolic walks against
// next-hop *set-membership* churn: a mutator widens and narrows an ECMP
// static on r1 (2 members <-> 1 member <-> withdrawn) while four goroutines
// run cached Checks whose walks branch through that entry. Under -race it
// proves the symbolic DFS, the shared WalkCache, and fib.Table's multipath
// entry copies compose; the stable paper policies must hold throughout.
func TestSymbolicWalksUnderSetChurn(t *testing.T) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	tables := map[string]*fib.Table{}
	for _, r := range pn.Routers() {
		tables[r.Name] = r.FIB
	}
	w := dataplane.NewWalker(pn.Topo, pn.Live())
	checker := NewChecker(w, []string{"r1", "r2", "r3"})
	checker.Workers = 8
	checker.Cache = NewWalkCache()

	churnPrefix := netip.MustParsePrefix("77.0.0.0/24")
	policies := []Policy{
		{Kind: Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: NoLoop, Prefix: pn.P},
		// The churn prefix branches toward r2 and r3 (or collapses to a
		// single path) mid-walk; it must never loop whatever the set state.
		{Kind: NoLoop, Prefix: churnPrefix},
	}

	// r1's two internal peers: r2 across 10.0.1.0/30, r3 across 10.0.2.0/30.
	wide := route.Route{Prefix: churnPrefix, Proto: route.ProtoStatic}.
		WithNextHops(netip.MustParseAddr("10.0.1.2"), netip.MustParseAddr("10.0.2.2"))
	narrow := route.Route{Prefix: churnPrefix, Proto: route.ProtoStatic}.
		WithNextHops(netip.MustParseAddr("10.0.1.2"))

	stop := make(chan struct{})
	var mutWg sync.WaitGroup
	mutWg.Add(1)
	go func() {
		defer mutWg.Done()
		r1 := tables["r1"]
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				r1.Offer(wide)
			case 1:
				r1.Offer(narrow) // withdraw-one-member transition
			case 2:
				r1.Withdraw(route.ProtoStatic, churnPrefix)
			}
			checker.Cache.InvalidateRouter("r1")
			i++
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rep := checker.Check(policies)
				for _, v := range rep.Violations {
					if v.Policy.Prefix == pn.P {
						t.Errorf("stable policy violated during set churn: %v", v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	mutWg.Wait()
}
