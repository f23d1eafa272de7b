package dist

import (
	"sync"
	"testing"

	"hbverify/internal/dataplane"
	"hbverify/internal/eqclass"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/serve"
	"hbverify/internal/verify"
	"hbverify/internal/whatif"
)

// One fleet executor serves the query engine's concurrent plans: each
// ExecuteWalks call is its own miniature round. Many single-walk calls from
// concurrent goroutines must each come back correct — correlation IDs
// isolate the overlapping rounds. Run under -race in CI.
func TestConcurrentWalkRounds(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)

	central := pn.LiveWalker()
	dst := dataplane.Representative(pn.P)
	sources := []string{"r1", "r2", "r3"}
	exec := f.executor()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				src := sources[(g+i)%len(sources)]
				walks, errs := exec.ExecuteWalks([]verify.WalkKey{{Source: src, Dst: dst}})
				if errs != nil {
					t.Errorf("walk %s: %v", src, errs[0])
					return
				}
				got, want := walks[0], central.Forward(src, dst)
				if got.Outcome != want.Outcome || got.Egress != want.Egress {
					t.Errorf("walk %s: got %v@%s, central %v@%s",
						src, got.Outcome, got.Egress, want.Outcome, want.Egress)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// The fleet executor is a verify.Executor, so the query engine takes it as
// is: each plan is one concurrent single-walk round, with the same verdicts
// as the central walker.
func TestFleetExecutorServesQueries(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	e := serve.New(serve.Config{
		Executor: f.executor(), Cache: verify.NewWalkCache(),
		Classes: eqclass.NewIncremental(nil), WhatIf: &whatif.Engine{}, Network: pn.Network,
		Metrics: metrics.NewRegistry(),
	})
	defer e.Close()

	queries := []serve.Query{
		serve.Reachability("r1", pn.P),
		serve.Reachability("r2", pn.P),
		serve.Reachability("r3", pn.P),
		serve.Waypoint("r3", pn.P, "r2"),
	}
	var wg sync.WaitGroup
	answers := make([]serve.Answer, len(queries))
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q serve.Query) {
			defer wg.Done()
			answers[i], errs[i] = e.Query(q)
		}(i, q)
	}
	wg.Wait()
	checker := verify.NewChecker(pn.LiveWalker(), []string{"r1", "r2", "r3"})
	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("%v: %v", q.Policy, errs[i])
		}
		pol := q.Policy
		pol.Sources = []string{q.Source}
		if rep := checker.Check([]verify.Policy{pol}); answers[i].OK != rep.OK() {
			t.Errorf("%v from %s: fleet-served OK=%v, central OK=%v",
				q.Policy, q.Source, answers[i].OK, rep.OK())
		}
	}
}
