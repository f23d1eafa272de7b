package hbverify

import (
	"net/netip"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/route"
	"hbverify/internal/verify"
)

// TestPipelineVerifyDistributed drives the distributed verification path
// end-to-end through the pipeline: first round builds the fleet and walks
// live, a quiet second round never touches the network (every walk is a
// walk-cache hit), and a control-plane change ships only the dirty
// routers' view deltas before re-walking — with the verdict flipping
// accordingly.
func TestPipelineVerifyDistributed(t *testing.T) {
	pn, p := startPaper(t)
	defer p.Close()
	policies := []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
	}

	first, err := p.VerifyDistributed(policies)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Report.OK() || first.Frames == 0 {
		t.Fatalf("cold distributed verify: report=%+v frames=%d", first.Report, first.Frames)
	}

	second, err := p.VerifyDistributed(policies)
	if err != nil {
		t.Fatal(err)
	}
	if second.Frames != 0 || second.Bytes != 0 {
		t.Fatalf("quiet round touched the network: %d frames, %d bytes", second.Frames, second.Bytes)
	}
	if second.Report.Walks != 0 || second.Report.Cached == 0 {
		t.Fatalf("quiet round: %d walks executed, %d cached", second.Report.Walks, second.Report.Cached)
	}
	if !second.Report.OK() || second.Report.Checked != first.Report.Checked {
		t.Fatalf("quiet round verdict drifted: %+v", second.Report)
	}

	// Fig. 2 misconfiguration: only r2's FIB changes, so the sync must ship
	// a delta for r2 and the distributed walks must see the new egress.
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	third, err := p.VerifyDistributed(policies)
	if err != nil {
		t.Fatal(err)
	}
	if third.Report.OK() {
		t.Fatal("distributed verify missed the misconfiguration")
	}
	if third.Frames == 0 {
		t.Fatal("dirty round shipped no frames")
	}
}

// TestPipelineDistributedMatchesCentral asserts the distributed fleet and
// the central checker agree policy-for-policy, including after churn.
func TestPipelineDistributedMatchesCentral(t *testing.T) {
	pn, p := startPaper(t)
	defer p.Close()
	policies := []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
	}
	check := func(stage string) {
		t.Helper()
		central := p.checker(p.Walker()).Check(policies)
		stats, err := p.VerifyDistributed(policies)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if central.OK() != stats.Report.OK() {
			t.Fatalf("%s: central OK=%v, distributed OK=%v",
				stage, central.OK(), stats.Report.OK())
		}
		if len(central.Violations) != len(stats.Report.Violations) {
			t.Fatalf("%s: central %d violations, distributed %d",
				stage, len(central.Violations), len(stats.Report.Violations))
		}
	}
	check("healthy")
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	check("link-down")
}

// TestVerifyDistributedAccountsWholeRound: a round after a FIB change syncs
// the changed router before it walks, and its Stats.Frames and Bytes are
// the fleet's counters' delta around the whole call — view delta and report
// included, as in VerifyLocalChecks — not around the walks alone.
func TestVerifyDistributedAccountsWholeRound(t *testing.T) {
	pn, p := startPaper(t)
	defer p.Close()
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	if _, err := p.VerifyDistributed(policies); err != nil {
		t.Fatal(err)
	}
	r1 := pn.Router("r1")
	r1.FIB.Offer(route.Route{Prefix: netip.MustParsePrefix("198.51.100.0/24"), Proto: route.ProtoStatic, NextHop: r1.Topo.Loopback})
	f0, b0 := p.fleet.Wire()
	stats, err := p.VerifyDistributed(policies)
	if err != nil {
		t.Fatal(err)
	}
	f1, b1 := p.fleet.Wire()
	if stats.Frames != int(f1-f0) || stats.Bytes != int(b1-b0) {
		t.Fatalf("round reports %d frames, %d bytes; the fleet wrote %d frames, %d bytes", stats.Frames, stats.Bytes, f1-f0, b1-b0)
	}
	if stats.Report.Walks == 0 || !stats.Report.OK() {
		t.Fatalf("r1's change re-walked nothing: %+v", stats.Report)
	}
}
