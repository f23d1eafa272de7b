package hbverify

import (
	"errors"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"hbverify/internal/route"
	"hbverify/internal/serve"
	"hbverify/internal/verify"
	"hbverify/internal/whatif"
)

// ServeEngine answers must match the pipeline's own batch Verify, share
// its walk cache, and surface serve.* metrics through Summary().
func TestPipelineServeEngine(t *testing.T) {
	pn, p := startPaper(t)
	policies := []verify.Policy{
		{Kind: verify.Reachable, Prefix: pn.P},
		{Kind: verify.NoLoop, Prefix: pn.P},
	}
	e := p.ServeEngine(policies)
	defer e.Close()

	// Batch first: its walks populate the shared cache, so the query is a
	// plan-cache hit.
	if rep := p.Verify(policies); !rep.OK() {
		t.Fatalf("batch violations: %v", rep.Violations)
	}
	ans, err := e.Query(serve.Reachability("r1", pn.P))
	if err != nil {
		t.Fatal(err)
	}
	if !ans.OK {
		t.Errorf("query violations: %+v", ans.Violations)
	}
	if !ans.CacheHit {
		t.Error("query after batch Verify should hit the shared plan cache")
	}

	// What-if through the same engine: losing both providers strands P.
	wa, err := e.Query(serve.WhatIf("both-providers",
		whatif.LinkFailure("r1", "e1"), whatif.LinkFailure("r2", "e2")))
	if err != nil {
		t.Fatal(err)
	}
	if wa.OK {
		t.Error("what-if must report the introduced reachability violation")
	}

	if s := p.Summary(); !strings.Contains(s, "serve.query.latency") {
		t.Errorf("Summary missing serve metrics: %q", s)
	}
}

// TestQueriesUnderChurn races concurrent queries against live FIB churn
// and log compaction — the always-on deployment: verifyd serving operator
// queries while the control plane converges and the capture window rolls.
// Run under -race in CI.
func TestQueriesUnderChurn(t *testing.T) {
	pn, p := startPaper(t)
	e := p.ServeEngine(nil)
	defer e.Close()

	churnPrefix := netip.MustParsePrefix("55.0.0.0/24")
	stop := make(chan struct{})
	var bg sync.WaitGroup

	// FIB churn on r1: offer/withdraw a static, driving OnChange →
	// per-router plan invalidation under the queries' feet.
	bg.Add(1)
	go func() {
		defer bg.Done()
		r1 := pn.Router("r1").FIB
		rt := route.Route{
			Prefix: churnPrefix, Proto: route.ProtoStatic,
			NextHop: netip.MustParseAddr("10.0.12.2"),
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				r1.Offer(rt)
			} else {
				r1.Withdraw(route.ProtoStatic, churnPrefix)
			}
		}
	}()

	// Log compaction: fold-and-evict the capture window while queries run.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Strategy.Compact(p.Net.Log)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sources := []string{"r1", "r2", "r3"}
			for i := 0; i < 50; i++ {
				src := sources[(g+i)%len(sources)]
				queries := []serve.Query{
					serve.Reachability(src, pn.P),
					serve.Waypoint("r3", pn.P, "r2"),
					serve.Reachability(src, churnPrefix),
				}
				ans, err := e.Query(queries[i%len(queries)])
				if err != nil && !errors.Is(err, serve.ErrOverloaded) {
					t.Errorf("query: %v", err)
					return
				}
				// The stable paper policy must hold whatever the unrelated
				// churn prefix is doing.
				if err == nil && i%len(queries) == 0 && !ans.OK {
					t.Errorf("stable reachability violated during churn: %+v", ans.Violations)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	if st := e.Stats(); st.Queries == 0 {
		t.Fatal("no queries answered")
	}
}
