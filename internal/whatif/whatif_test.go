package whatif

import (
	"net/netip"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func startPaper(t *testing.T) *network.PaperNet {
	t.Helper()
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	return pn
}

func engine(pn *network.PaperNet) *Engine {
	return &Engine{
		Seed:    99,
		Sources: []string{"r1", "r2", "r3"},
		Policies: []verify.Policy{
			{Kind: verify.Reachable, Prefix: pn.P},
			{Kind: verify.NoLoop, Prefix: pn.P},
		},
	}
}

func TestBlueprintCopyReproducesState(t *testing.T) {
	pn := startPaper(t)
	bp := pn.Blueprint()
	copyNet, err := bp.Instantiate(42)
	if err != nil {
		t.Fatal(err)
	}
	copyNet.Start()
	if err := copyNet.Run(); err != nil {
		t.Fatal(err)
	}
	// The copy's FIBs match the original's, entry for entry.
	for _, r := range pn.Routers() {
		orig := r.FIB.Snapshot()
		cp := copyNet.Router(r.Name).FIB.Snapshot()
		if len(orig) != len(cp) {
			t.Fatalf("%s: %d vs %d entries", r.Name, len(orig), len(cp))
		}
		for p, e := range orig {
			if cp[p].NextHop != e.NextHop {
				t.Fatalf("%s %s: %v vs %v", r.Name, p, e.NextHop, cp[p].NextHop)
			}
		}
	}
	// The original was not perturbed (its log length is untouched by the
	// copy's activity).
	if copyNet.Log == pn.Log {
		t.Fatal("copy shares the original's log")
	}
}

func TestBlueprintPreservesDownLinks(t *testing.T) {
	pn := startPaper(t)
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	bp := pn.Blueprint()
	copyNet, err := bp.Instantiate(1)
	if err != nil {
		t.Fatal(err)
	}
	if copyNet.Topo.LinkBetween("r2", "e2").Up() {
		t.Fatal("down link came back up in the copy")
	}
	copyNet.Start()
	if err := copyNet.Run(); err != nil {
		t.Fatal(err)
	}
	// The copy converges to the failover state: r3 exits via r1.
	e, ok := copyNet.Router("r3").FIB.Exact(pn.P)
	if !ok || e.NextHop != addr("1.1.1.1") {
		t.Fatalf("copy failover state = %+v %v", e, ok)
	}
}

func TestWhatIfLinkFailureIsSafe(t *testing.T) {
	pn := startPaper(t)
	res, err := engine(pn).Ask(pn.Blueprint(), LinkFailure("r2", "e2"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Baseline.OK() {
		t.Fatalf("baseline violated: %v", res.Baseline.Violations)
	}
	if !res.OK() {
		t.Fatalf("failover should keep P reachable: %v", res.Report.Violations)
	}
	// The hypothetical data plane exits via r1.
	if res.FIBs["r3"][pn.P].NextHop != addr("1.1.1.1") {
		t.Fatalf("hypothetical r3 = %+v", res.FIBs["r3"][pn.P])
	}
	// The real network is untouched: r3 still exits via r2.
	live, _ := pn.Router("r3").FIB.Exact(pn.P)
	if live.NextHop != addr("2.2.2.2") {
		t.Fatalf("live network perturbed: %+v", live)
	}
	if res.Events == 0 {
		t.Fatal("no hypothetical events recorded")
	}
}

func TestWhatIfDoubleFailureBlackholes(t *testing.T) {
	pn := startPaper(t)
	res, err := engine(pn).Ask(pn.Blueprint(),
		LinkFailure("r2", "e2"), LinkFailure("r1", "e1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("double uplink failure should violate reachability")
	}
}

func TestWhatIfConfigChangePredictsViolation(t *testing.T) {
	pn := startPaper(t)
	eng := engine(pn)
	eng.Policies = []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	res, err := eng.Ask(pn.Blueprint(), ConfigUpdate("r2", "what-if lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Baseline.OK() {
		t.Fatal("baseline should comply")
	}
	if res.OK() {
		t.Fatal("the LP-10 change should be predicted to violate the policy")
	}
	// And the operator can see exactly what would move.
	diffs := Diff(pn.Network, res.FIBs)
	if len(diffs) == 0 {
		t.Fatal("no FIB diffs reported")
	}
	// The real network never saw the change.
	if len(pn.Store.History("r2")) != 1 {
		t.Fatal("what-if leaked into the real config store")
	}
}

func TestWhatIfRecovery(t *testing.T) {
	pn := startPaper(t)
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	eng := engine(pn)
	eng.Policies = []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	recovery := func(n *network.Network) error {
		_, err := n.SetLinkUp("r2", "e2", true)
		return err
	}
	res, err := eng.Ask(pn.Blueprint(), recovery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.OK() {
		t.Fatal("baseline (failed uplink) should violate the preferred-egress policy")
	}
	if !res.OK() {
		t.Fatalf("recovery should restore the policy: %v", res.Report.Violations)
	}
}

func TestDiffFormats(t *testing.T) {
	pn := startPaper(t)
	res, err := engine(pn).Ask(pn.Blueprint(), LinkFailure("r2", "e2"))
	if err != nil {
		t.Fatal(err)
	}
	diffs := Diff(pn.Network, res.FIBs)
	found := false
	for _, d := range diffs {
		if d == "r3 203.0.113.0/24: 2.2.2.2 -> 1.1.1.1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected r3 egress diff, got %v", diffs)
	}
}
