package hbverify

import (
	"reflect"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbr"
	"hbverify/internal/verify"
)

// TestIncrementalInvalidatedByRollback pins what a repair rollback landing
// between incremental inference rounds does to the graph cache: the
// pipeline drops the cached graph (to free it while the network
// reconverges; the rollback's ConfigChange and reconvergence are only new
// log suffix), and the next inference must match a from-scratch Rules pass
// exactly.
func TestIncrementalInvalidatedByRollback(t *testing.T) {
	pn, p := startPaper(t)

	// Round 1: warm the incremental cache on the healthy network.
	p.Graph()
	invalidations := func() int64 {
		return p.Metrics.Counter("infer.cache.invalidations").Value()
	}
	if invalidations() != 0 {
		t.Fatalf("cache invalidated before any repair: %d", invalidations())
	}

	// Fault: the same localpref misconfiguration the paper repairs.
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}

	// Round 2: incremental inference sees the fault's suffix.
	p.Graph()

	// Repair rollback lands between incremental rounds.
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	d, err := p.DetectAndRepair(policies)
	if err != nil {
		t.Fatal(err)
	}
	if !d.RolledBack {
		t.Fatalf("no rollback: %s", d)
	}
	if invalidations() < 1 {
		t.Fatal("rollback did not invalidate the incremental inference cache")
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}

	// Round 3: post-rollback inference must equal a fresh full pass.
	got := p.Graph()
	want := hbr.Rules{}.Infer(capture.StripOracle(pn.Log.All()))
	if got.NodeCount() != want.NodeCount() {
		t.Fatalf("post-rollback nodes: incremental %d, full %d", got.NodeCount(), want.NodeCount())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("post-rollback edges diverge: incremental %d, full %d",
			len(got.Edges()), len(want.Edges()))
	}

	// And the repaired network verifies clean.
	if rep := p.Verify(policies); !rep.OK() {
		t.Fatalf("not repaired: %v", rep.Violations)
	}
}
