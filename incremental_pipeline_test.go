package hbverify

import (
	"strings"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/verify"
)

// TestPipelineSharesOneInferencePerGeneration pins the tentpole contract:
// Detect, Accuracy, and Graph().RootCauses all route through the incremental
// cache, so one log generation costs exactly one full inference no matter
// how many pipeline entry points consume the graph.
func TestPipelineSharesOneInferencePerGeneration(t *testing.T) {
	pn, p := startPaper(t)
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}

	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	d := p.Detect(policies)
	if d.Report.OK() {
		t.Fatal("misconfiguration undetected")
	}
	p.Accuracy()
	if roots := p.Graph().RootCauses(d.Fault.ID); len(roots) == 0 {
		t.Fatal("no root causes for the fault")
	}

	full := p.Metrics.Counter("infer.cache.misses").Value()
	hits := p.Metrics.Counter("infer.cache.hits").Value()
	if full != 1 {
		t.Fatalf("Detect+Accuracy+RootCauses cost %d full inferences, want 1 (hits=%d)", full, hits)
	}
	if hits < 2 {
		t.Fatalf("expected at least 2 cache hits, got %d", hits)
	}

	// A new generation (more captured I/Os) goes through the incremental
	// path, still without a fresh full inference.
	if _, err := pn.UpdateConfig("r2", "lp 300", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 300
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	p.Accuracy()
	if got := p.Metrics.Counter("infer.cache.misses").Value(); got != full {
		t.Fatalf("log growth forced a full inference: misses=%d, want %d", got, full)
	}
	if p.Metrics.Counter("infer.suffix.ios").Value() == 0 {
		t.Fatal("incremental path did not run on log growth")
	}

	// The summary surfaces the instrumentation.
	if s := p.Summary(); !strings.Contains(s, "metrics:") || !strings.Contains(s, "infer.cache.hits") {
		t.Fatalf("summary does not expose metrics:\n%s", s)
	}
}
