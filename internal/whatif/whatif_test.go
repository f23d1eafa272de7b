package whatif

import (
	"net/netip"
	"slices"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/route"
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
		installs, removes := fib.Diff(r.FIB.Snapshot(), copyNet.Router(r.Name).FIB.Snapshot())
		if len(installs)+len(removes) != 0 {
			t.Fatalf("%s: the copy holds %v and lacks %v", r.Name, installs, removes)
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
	if e, _ := res.FIBs["r3"].Exact(pn.P); e.NextHop != addr("1.1.1.1") {
		t.Fatalf("hypothetical r3 = %+v", e)
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

// Diff reports a change in the next-hop set even when the lowest member,
// NextHop, stays: a live single hop widening to an ECMP pair, and a live
// ECMP pair narrowing to one of its members.
func TestDiffReportsECMPSetChanges(t *testing.T) {
	pn := startPaper(t)
	wide, narrow := addr("2.2.2.2"), addr("9.9.9.9")
	q := netip.MustParsePrefix("198.18.0.0/24")
	pn.Router("r3").FIB.Offer(route.Route{Prefix: q, Proto: route.ProtoStatic}.WithNextHops(wide, narrow))

	hypo := pn.FIBSnapshot()
	live, _ := hypo["r3"].Exact(pn.P)
	if live.HopCount() != 1 {
		t.Fatalf("r3's live route to P is not single-path: %v", live)
	}
	grown := live
	grown.NextHops = []netip.Addr{live.NextHop, addr("255.255.255.254")}
	_ = hypo["r3"].Insert(pn.P, grown)
	_ = hypo["r3"].Insert(q, fib.Entry{Prefix: q, NextHop: wide, Proto: route.ProtoStatic})

	diffs := Diff(pn.Network, hypo)
	for _, want := range []string{
		"r3 203.0.113.0/24: " + live.NextHop.String() + " -> " + live.NextHop.String() + "|255.255.255.254",
		"r3 198.18.0.0/24: 2.2.2.2|9.9.9.9 -> 2.2.2.2",
	} {
		if !slices.Contains(diffs, want) {
			t.Errorf("missing %q in %v", want, diffs)
		}
	}
}

// Diff lists one router's several changes in prefix order, the same on
// every call.
func TestDiffIsDeterministic(t *testing.T) {
	pn := startPaper(t)
	hypo := pn.FIBSnapshot()
	live, _ := hypo["r3"].Exact(pn.P)
	for _, s := range []string{"198.18.2.0/24", "198.18.0.0/24", "198.18.1.0/24"} {
		q := netip.MustParsePrefix(s)
		_ = hypo["r3"].Insert(q, fib.Entry{Prefix: q, NextHop: addr("2.2.2.2"), Proto: route.ProtoStatic})
	}
	hypo["r3"].Delete(pn.P)
	want := []string{
		"r3 198.18.0.0/24: (none) -> 2.2.2.2",
		"r3 198.18.1.0/24: (none) -> 2.2.2.2",
		"r3 198.18.2.0/24: (none) -> 2.2.2.2",
		"r3 203.0.113.0/24: " + live.NextHop.String() + " -> (removed)",
	}
	for i := 0; i < 20; i++ {
		if got := Diff(pn.Network, hypo); !slices.Equal(got, want) {
			t.Fatalf("call %d: Diff = %q, want %q", i, got, want)
		}
	}
}
