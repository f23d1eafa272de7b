package dist

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"hbverify/internal/dataplane"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

// TestOneCheckerTwoExecutors runs the same Checker value over the central
// executor and over a live fleet executor and requires the same report and
// the same walk behind every check: the fleet is a way to run the
// verifier's walks, not a second verifier. A k=4 fat-tree makes most walks
// branch, and the policy set covers every kind, so the symbolic fields
// (Egresses, Edges, Branches) are compared too.
func TestOneCheckerTwoExecutors(t *testing.T) {
	const k = 4
	n, err := network.BuildFatTree(1, k)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// One link down, so the two planes of pod 0 differ.
	if _, err := n.SetLinkUp("p0e0", "p0a0", false); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	f := startFleet(t, n)

	var edges []string
	var policies []verify.Policy
	for pod := 0; pod < k; pod++ {
		for i := 0; i < k/2; i++ {
			edge := fmt.Sprintf("p%de%d", pod, i)
			edges = append(edges, edge)
			lo := netip.MustParsePrefix(fmt.Sprintf("9.1.%d.%d/32", pod, i+1))
			policies = append(policies,
				verify.Policy{Kind: verify.Reachable, Prefix: lo},
				verify.Policy{Kind: verify.NoLoop, Prefix: lo},
				verify.Policy{Kind: verify.NoBlackhole, Prefix: lo},
				verify.Policy{Kind: verify.Egress, Prefix: lo, Expect: edge},
				verify.Policy{Kind: verify.Waypoint, Prefix: lo, Expect: "core0"}, // violated on the other plane
				verify.Policy{Kind: verify.Avoid, Prefix: lo, Expect: "p0a0", Sources: []string{"p1e0", "p0e1"}},
				verify.Policy{Kind: verify.EcmpConsistent, Prefix: lo})
		}
	}
	// An unroutable prefix: walks that end Dropped.
	policies = append(policies, verify.Policy{Kind: verify.NoBlackhole, Prefix: netip.MustParsePrefix("203.0.113.0/24")})

	ck := verify.NewChecker(dataplane.NewWalker(n.Topo, n.Live()), edges)
	central := ck.Check(policies)
	ck.Executor = f.executor()
	fleet := ck.Check(policies)

	if len(central.Violations) == 0 || central.Walks == 0 || central.Deduped == 0 {
		t.Fatalf("test premise: central report %+v", central)
	}
	cr, fr := central.Results(), fleet.Results()
	if len(cr) != len(fr) {
		t.Fatalf("central answered %d checks, fleet %d", len(cr), len(fr))
	}
	for i := range cr {
		if !reflect.DeepEqual(cr[i], fr[i]) {
			t.Fatalf("check %d (%s from %s):\n central %+v\n fleet   %+v", i, cr[i].Policy, cr[i].Source, cr[i], fr[i])
		}
	}
	if !reflect.DeepEqual(central, fleet) {
		t.Fatalf("reports differ:\n central %s (%d walks, %d deduped)\n fleet   %s (%d walks, %d deduped)",
			central.Summary(), central.Walks, central.Deduped, fleet.Summary(), fleet.Walks, fleet.Deduped)
	}
}

// TestFleetRoundDedupsWalks: three policies over one prefix need one walk
// per source, on the fleet exactly as on the central pool — the round puts
// three walks on the wire, not nine.
func TestFleetRoundDedupsWalks(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	reg := metrics.NewRegistry()
	f, err := NewFleet(pn.Live(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := f.Verify(verify.NewChecker(nil, []string{"r1", "r2", "r3"}), []verify.Policy{
		{Kind: verify.Reachable, Prefix: pn.P},
		{Kind: verify.NoLoop, Prefix: pn.P},
		{Kind: verify.NoBlackhole, Prefix: pn.P},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Walks != 9 || stats.Report.Checked != 9 || !stats.Report.OK() {
		t.Fatalf("stats = %+v", stats)
	}
	if sent := reg.Counter("dist.walks").Value(); sent != 3 {
		t.Fatalf("%d walks sent for 3 distinct (source, probe) pairs", sent)
	}
	var timed int64
	for _, src := range []string{"r1", "r2", "r3"} {
		timed += reg.Histogram("dist.node." + src).Count()
	}
	if timed != 3 || stats.Batches != 3 {
		t.Fatalf("%d results timed, %d batches, want 3 and 3", timed, stats.Batches)
	}
}
