package snapshot

import (
	"net/netip"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// fig1Transition drives Fig. 1a -> Fig. 1b: start with only E1 advertising,
// then E2's route appears. Returns the network and the full log.
func fig1Transition(t *testing.T) (*network.PaperNet, []capture.IO) {
	t.Helper()
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE2 = false
	pn, err := network.BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := pn.UpdateConfig("e2", "originate P", func(c *config.Router) {
		c.BGP.Networks = []netip.Prefix{network.PrefixP}
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	return pn, pn.Log.All()
}

// staleR2Cut builds the Fig. 1c cut: every router's log complete except
// R2's, which stops just before its FIB switch to the e2 uplink.
func staleR2Cut(t *testing.T, pn *network.PaperNet, ios []capture.IO) Cut {
	t.Helper()
	var fibSwitch capture.IO
	for _, io := range ios {
		if io.Router == "r2" && io.Type == capture.FIBInstall &&
			io.Prefix == pn.P && io.NextHop == addr("10.0.5.2") {
			fibSwitch = io
		}
	}
	if fibSwitch.ID == 0 {
		t.Fatal("r2 never switched to its uplink")
	}
	return Cut{"r2": fibSwitch.Time - 1}
}

func rulesInfer(ios []capture.IO) *hbg.Graph {
	return hbr.Rules{}.Infer(capture.StripOracle(ios))
}

func TestFig1cNaiveSnapshotSeesPhantomLoop(t *testing.T) {
	pn, ios := fig1Transition(t)
	cut := staleR2Cut(t, pn, ios)
	collected := Collect(ios, cut)
	fibs := BuildFIBs(collected)
	// The stale view: r1 points at r2 while r2 still points at r1.
	w := dataplane.NewWalker(pn.Topo, dataplane.SnapshotView(fibs))
	rep := verify.NewChecker(w, []string{"r1", "r2", "r3"}).
		Check([]verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}})
	if rep.OK() {
		t.Fatal("naive snapshot failed to produce the Fig. 1c phantom loop")
	}
}

func TestFig1cHBGDetectsInconsistency(t *testing.T) {
	pn, ios := fig1Transition(t)
	cut := staleR2Cut(t, pn, ios)
	collected := Collect(ios, cut)
	res := Check(rulesInfer(collected), nil)
	if res.Consistent {
		t.Fatal("inconsistent cut passed the check")
	}
	foundR2 := false
	for _, r := range res.WaitFor {
		if r == "r2" {
			foundR2 = true
		}
	}
	if !foundR2 {
		t.Fatalf("WaitFor = %v, want r2", res.WaitFor)
	}
	if len(res.Missing) == 0 {
		t.Fatal("no missing recvs reported")
	}
}

func TestFig1cConsistentCollectConverges(t *testing.T) {
	pn, ios := fig1Transition(t)
	cut := staleR2Cut(t, pn, ios)
	collected, finalCut, res := ConsistentCollect(ios, cut, rulesInfer, nil)
	if !res.Consistent {
		t.Fatalf("never became consistent: %+v", res)
	}
	// The extended snapshot shows no loop.
	fibs := BuildFIBs(collected)
	w := dataplane.NewWalker(pn.Topo, dataplane.SnapshotView(fibs))
	rep := verify.NewChecker(w, []string{"r1", "r2", "r3"}).
		Check([]verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}})
	if !rep.OK() {
		t.Fatalf("consistent snapshot still loops: %v", rep.Violations)
	}
	// The cut advanced for r2.
	if h, limited := finalCut["r2"]; limited && h <= cut["r2"] {
		t.Fatalf("cut did not advance: %v -> %v", cut["r2"], h)
	}
}

func TestFullCutIsConsistent(t *testing.T) {
	_, ios := fig1Transition(t)
	res := Check(rulesInfer(ios), nil)
	if !res.Consistent {
		t.Fatalf("complete log judged inconsistent: %+v", res)
	}
}

func TestExternalPeersExemptFromWaiting(t *testing.T) {
	_, ios := fig1Transition(t)
	// Drop the external routers' logs entirely — as in reality, where the
	// provider's internals are invisible. Without the exemption the
	// snapshot could never be consistent.
	var internalOnly []capture.IO
	for _, io := range ios {
		if io.Router == "e1" || io.Router == "e2" {
			continue
		}
		internalOnly = append(internalOnly, io)
	}
	external := func(r string) bool { return r == "e1" || r == "e2" }
	res := Check(rulesInfer(internalOnly), external)
	if !res.Consistent {
		t.Fatalf("external recvs should be exempt: %+v", res)
	}
	// And without the exemption, it is (correctly) incomplete.
	res = Check(rulesInfer(internalOnly), nil)
	if res.Consistent {
		t.Fatal("missing external sends should fail the strict check")
	}
}

func TestBuildFIBsReplaysRemoves(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	ios := []capture.IO{
		{ID: 1, Router: "a", Type: capture.FIBInstall, Prefix: p, NextHop: addr("1.1.1.1")},
		{ID: 2, Router: "a", Type: capture.FIBInstall, Prefix: p, NextHop: addr("2.2.2.2")},
		{ID: 3, Router: "b", Type: capture.FIBInstall, Prefix: p, NextHop: addr("3.3.3.3")},
		{ID: 4, Router: "b", Type: capture.FIBRemove, Prefix: p},
	}
	fibs := BuildFIBs(ios)
	if fibs["a"][p].NextHop != addr("2.2.2.2") {
		t.Fatalf("a = %+v", fibs["a"][p])
	}
	if _, ok := fibs["b"][p]; ok {
		t.Fatal("b kept removed entry")
	}
}

func TestCollectHonorsPerRouterHorizons(t *testing.T) {
	ios := []capture.IO{
		{ID: 1, Router: "a", Time: 10},
		{ID: 2, Router: "a", Time: 20},
		{ID: 3, Router: "b", Time: 15},
	}
	got := Collect(ios, Cut{"a": 10})
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Fatalf("collected = %v", got)
	}
	// Empty cut = everything.
	if got := Collect(ios, Cut{}); len(got) != 3 {
		t.Fatalf("full collect = %v", got)
	}
}

func TestCutHelpers(t *testing.T) {
	c := CutAt([]string{"a", "b"}, 55)
	if len(c) != 2 || c["a"] != 55 {
		t.Fatalf("CutAt = %v", c)
	}
	cl := c.Clone()
	cl["a"] = 99
	if c["a"] != 55 {
		t.Fatal("Clone aliased")
	}
}

func TestConsistentCollectNoProgressStops(t *testing.T) {
	// A recv with no send anywhere in the log: the collector must give up
	// rather than loop forever.
	p := netip.MustParsePrefix("10.0.0.0/8")
	ios := []capture.IO{
		{ID: 1, Router: "a", Type: capture.RecvAdvert, Prefix: p, Peer: "ghost", Time: 5},
		{ID: 2, Router: "a", Type: capture.RIBInstall, Prefix: p, Time: 6},
		{ID: 3, Router: "a", Type: capture.FIBInstall, Prefix: p, Time: 7},
	}
	// ghost has no events at all; cut limits only ghost (vacuously).
	_, _, res := ConsistentCollect(ios, Cut{"ghost": 0}, rulesInfer, nil)
	if res.Consistent {
		t.Fatal("impossible snapshot judged consistent")
	}
}

func TestPerRouterSubgraphExchangeMatchesCentral(t *testing.T) {
	// §5: HBG construction can be distributed — per-router subgraphs plus
	// cross-router send/recv edges reassemble the central graph.
	_, ios := fig1Transition(t)
	central := rulesInfer(ios)
	merged := hbg.New()
	routers := map[string]bool{}
	for _, io := range ios {
		routers[io.Router] = true
	}
	for r := range routers {
		merged.Merge(central.Subgraph(r))
	}
	// Cross-router edges re-added from the central inference.
	for _, e := range central.Edges() {
		a, _ := central.Node(e.From)
		b, _ := central.Node(e.To)
		if a.Router != b.Router {
			merged.AddEdgeConf(e.From, e.To, central.Confidence(e.From, e.To))
		}
	}
	if merged.NodeCount() != central.NodeCount() || merged.EdgeCount() != central.EdgeCount() {
		t.Fatalf("merged %d/%d vs central %d/%d",
			merged.NodeCount(), merged.EdgeCount(), central.NodeCount(), central.EdgeCount())
	}
	if Check(merged, nil).Consistent != Check(central, nil).Consistent {
		t.Fatal("distributed and central checks disagree")
	}
}

// TestBuildFIBsKeepsRemoveOnlyRouter: a router whose only collected events
// are FIB removes still has a FIB — an empty one — and a walker must be
// able to tell "forwards nothing" from "not in the snapshot".
func TestBuildFIBsKeepsRemoveOnlyRouter(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	fibs := BuildFIBs([]capture.IO{
		{ID: 1, Router: "a", Type: capture.FIBInstall, Prefix: p, NextHop: addr("1.1.1.1")},
		{ID: 2, Router: "b", Type: capture.FIBRemove, Prefix: p},
	})
	if table, ok := fibs["b"]; !ok || len(table) != 0 {
		t.Fatalf("b = %v (present %v), want an empty FIB", table, ok)
	}
}
