package verify

import (
	"net/netip"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/network"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func startPaper(t *testing.T, opt network.PaperOpts) *network.PaperNet {
	t.Helper()
	pn, err := network.BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	return pn
}

func checker(pn *network.PaperNet) *Checker {
	w := dataplane.NewWalker(pn.Topo, pn.Live())
	return NewChecker(w, []string{"r1", "r2", "r3"})
}

// preferredEgressPolicy expresses the paper's running policy — "R2 is the
// preferred exit point when its uplink is up; otherwise R1 should be used"
// — as a concrete Egress policy given current availability.
func preferredEgressPolicy(prefix netip.Prefix, ordered []string, available func(string) bool) Policy {
	for _, e := range ordered {
		if available == nil || available(e) {
			return Policy{Kind: Egress, Prefix: prefix, Expect: e}
		}
	}
	// Nothing available: the best we can require is no loops.
	return Policy{Kind: NoLoop, Prefix: prefix}
}

func paperPolicy(pn *network.PaperNet) Policy {
	return preferredEgressPolicy(pn.P, []string{"e2", "e1"}, func(e string) bool {
		// A provider is available if its uplink is up and it originates P.
		switch e {
		case "e2":
			l := pn.Topo.LinkBetween("r2", "e2")
			return l != nil && l.Up() && len(pn.Router("e2").Cfg.BGP.Networks) > 0
		case "e1":
			l := pn.Topo.LinkBetween("r1", "e1")
			return l != nil && l.Up() && len(pn.Router("e1").Cfg.BGP.Networks) > 0
		}
		return false
	})
}

func TestHealthyNetworkPasses(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	rep := checker(pn).Check([]Policy{
		paperPolicy(pn),
		{Kind: NoLoop, Prefix: pn.P},
		{Kind: NoBlackhole, Prefix: pn.P},
		{Kind: Reachable, Prefix: pn.P},
	})
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Checked != 12 {
		t.Fatalf("checked = %d", rep.Checked)
	}
}

func TestFig2ViolationDetected(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	rep := checker(pn).Check([]Policy{paperPolicy(pn)})
	// All three internal routers now egress via e1 although e2 is up:
	// three violations.
	if len(rep.Violations) != 3 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	for _, v := range rep.Violations {
		if v.Walk.Egress != "e1" {
			t.Fatalf("violation walk = %v", v.Walk)
		}
	}
}

func TestFallbackPolicyWhenPrimaryDown(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	// Policy now expects e1 — and the network complies.
	rep := checker(pn).Check([]Policy{paperPolicy(pn)})
	if !rep.OK() {
		t.Fatalf("violations after failover: %v", rep.Violations)
	}
}

func TestPhantomLoopOnInconsistentSnapshot(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	snap := dataplane.Freeze(pn.Live())
	// Fig. 1c: the verifier's copy of r2's FIB is stale (points at r1)
	// while r1 already points at r2.
	snap.Router("r2").Install(fib.Entry{Prefix: pn.P, NextHop: addr("1.1.1.1")})
	snap.Router("r1").Install(fib.Entry{Prefix: pn.P, NextHop: addr("2.2.2.2")})
	w := dataplane.NewWalker(pn.Topo, snap)
	rep := NewChecker(w, []string{"r1", "r2", "r3"}).Check([]Policy{{Kind: NoLoop, Prefix: pn.P}})
	if rep.OK() {
		t.Fatal("phantom loop not reported — the Fig. 1c hazard is gone?")
	}
}

func TestWaypointAndAvoid(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	c := checker(pn)
	// Traffic from r3 to P flows through r2 (the "firewall").
	rep := c.Check([]Policy{{Kind: Waypoint, Prefix: pn.P, Sources: []string{"r3"}, Expect: "r2"}})
	if !rep.OK() {
		t.Fatalf("waypoint violated: %v", rep.Violations)
	}
	rep = c.Check([]Policy{{Kind: Avoid, Prefix: pn.P, Sources: []string{"r3"}, Expect: "r1"}})
	if !rep.OK() {
		t.Fatalf("avoid violated: %v", rep.Violations)
	}
	// And the converse fails.
	rep = c.Check([]Policy{{Kind: Waypoint, Prefix: pn.P, Sources: []string{"r3"}, Expect: "r1"}})
	if rep.OK() {
		t.Fatal("expected waypoint violation")
	}
	rep = c.Check([]Policy{{Kind: Avoid, Prefix: pn.P, Sources: []string{"r3"}, Expect: "r2"}})
	if rep.OK() {
		t.Fatal("expected avoid violation")
	}
}

func TestBlackholeDetection(t *testing.T) {
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE1, opt.AdvertiseE2 = false, false
	pn := startPaper(t, opt)
	rep := checker(pn).Check([]Policy{{Kind: NoBlackhole, Prefix: pn.P}})
	if len(rep.Violations) != 3 {
		t.Fatalf("violations = %v", rep.Violations)
	}
}

func TestPerPolicySourcesOverride(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	rep := checker(pn).Check([]Policy{{Kind: Reachable, Prefix: pn.P, Sources: []string{"r3"}}})
	if rep.Checked != 1 {
		t.Fatalf("checked = %d", rep.Checked)
	}
}

func TestPreferredEgressFallsBackToNoLoop(t *testing.T) {
	p := preferredEgressPolicy(network.PrefixP, []string{"e2", "e1"}, func(string) bool { return false })
	if p.Kind != NoLoop {
		t.Fatalf("policy = %v", p)
	}
}

func TestStringsAndSummary(t *testing.T) {
	p := Policy{Kind: Egress, Prefix: network.PrefixP, Expect: "e2"}
	if p.String() != "egress(203.0.113.0/24 @e2)" {
		t.Fatalf("policy string = %q", p.String())
	}
	var rep Report
	rep.Checked = 4
	if rep.Summary() != "ok (4 checks)" {
		t.Fatalf("summary = %q", rep.Summary())
	}
	rep.Violations = append(rep.Violations, Violation{Policy: p, Source: "r3", Reason: "x"})
	if rep.Summary() != "1 violations in 4 checks" {
		t.Fatalf("summary = %q", rep.Summary())
	}
	if rep.Violations[0].String() == "" {
		t.Fatal("violation string empty")
	}
}
