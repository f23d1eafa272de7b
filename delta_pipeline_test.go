package hbverify

import (
	"reflect"
	"strings"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/eqclass"
	"hbverify/internal/verify"
)

// TestPipelineVerifyUsesWalkCache proves repeat Verify calls on a quiet
// network come entirely from the walk cache, and that a control-plane
// change re-executes walks and changes the verdict correctly.
func TestPipelineVerifyUsesWalkCache(t *testing.T) {
	pn, p := startPaper(t)
	policies := []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
	}
	first := p.Verify(policies)
	if !first.OK() || first.Walks == 0 || first.Cached != 0 {
		t.Fatalf("cold verify: %+v", first)
	}
	second := p.Verify(policies)
	if second.Walks != 0 || second.Cached != first.Walks {
		t.Fatalf("warm verify executed %d walks, cached %d; want 0/%d",
			second.Walks, second.Cached, first.Walks)
	}
	if !reflect.DeepEqual(first.Violations, second.Violations) {
		t.Fatal("cached verify changed verdicts")
	}

	// Fig. 2 misconfiguration: the cache must notice via FIB deltas alone.
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	third := p.Verify(policies)
	if third.OK() {
		t.Fatal("cached verify missed the misconfiguration")
	}
	if third.Walks == 0 {
		t.Fatal("no walks re-executed after FIB changes")
	}
}

// TestPipelineClassesMatchCompute checks the pipeline's incremental
// classifier against a from-scratch Compute, before and after churn.
func TestPipelineClassesMatchCompute(t *testing.T) {
	pn, p := startPaper(t)
	want := eqclass.Compute(pn.Live(), nil)
	if got := p.Classes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("classes = %v, want %v", got, want)
	}

	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	want = eqclass.Compute(pn.Live(), nil)
	if got := p.Classes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("classes after link-down = %v, want %v", got, want)
	}
}

// TestPipelineRollbackIsOrdinaryDeltas runs the end-to-end repair flow and
// requires the rollback to reach the delta path as the FIB updates its
// reconvergence makes, nothing more: the classifier re-signs fewer prefixes
// than the universe holds (a reset would re-sign all of them), and still
// classifies exactly as a from-scratch Compute, and the cached verdict is
// clean.
func TestPipelineRollbackIsOrdinaryDeltas(t *testing.T) {
	pn, p := startPaper(t)
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	p.Verify(policies) // populate the walk cache

	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	p.Classes() // classify the fault, so what follows counts the rollback alone
	resigned := p.Metrics.Counter("eqclass.resigned").Value()
	d, err := p.DetectAndRepair(policies)
	if err != nil || !d.RolledBack {
		t.Fatalf("repair: %v / %v", err, d)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}

	if rep := p.Verify(policies); !rep.OK() {
		t.Fatalf("cached verify stale after rollback: %v", rep.Violations)
	}
	want := eqclass.Compute(pn.Live(), nil)
	if got := p.Classes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("classes stale after rollback: %v, want %v", got, want)
	}
	universe := 0
	for _, c := range want {
		universe += len(c.Prefixes)
	}
	if n := p.Metrics.Counter("eqclass.resigned").Value() - resigned; n == 0 || n >= int64(universe) {
		t.Fatalf("the rollback re-signed %d prefixes of a %d-prefix universe, want some but fewer than all", n, universe)
	}
}

// TestPipelineSummaryExposesDeltaMetrics checks the new counters surface
// through Pipeline.Summary after the delta path has done work.
func TestPipelineSummaryExposesDeltaMetrics(t *testing.T) {
	pn, p := startPaper(t)
	pols := []verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}}
	p.Verify(pols)
	p.Verify(pols)
	p.Classes()
	s := p.Summary()
	for _, counter := range []string{"verify.walks.cached", "eqclass.resigned"} {
		if !strings.Contains(s, counter) {
			t.Fatalf("summary missing %s:\n%s", counter, s)
		}
	}
}
