package hbr

import (
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbg"
	"hbverify/internal/network"
	"hbverify/internal/route"
)

// CoveredWindow reports the ID range [first, last] the cache currently
// covers (last < first when coverage is empty) and whether a baseline
// exists at all.
func (inc *Incremental) CoveredWindow() (first, last uint64, ok bool) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.firstID, inc.lastID, inc.cached != nil
}

// fig2Log runs the paper's Fig. 2 scenario and returns the I/Os captured
// after the misconfiguration, plus the config-change and fault IDs.
func fig2Log(t *testing.T, skew, jitter time.Duration) (ios []capture.IO, ccID, faultID uint64) {
	t.Helper()
	opt := network.DefaultPaperOpts()
	opt.ClockSkew, opt.ClockJitter = skew, jitter
	pn, err := network.BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	mark := pn.Log.Len()
	cc, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	ios = pn.Log.Snapshot()[mark:]
	for _, io := range ios {
		if io.Router == "r1" && io.Type == capture.FIBInstall && io.Prefix == pn.P {
			faultID = io.ID
		}
	}
	if faultID == 0 {
		t.Fatal("fault FIB install not found")
	}
	return ios, cc.ID, faultID
}

func TestRulesRootCauseFig2(t *testing.T) {
	ios, ccID, faultID := fig2Log(t, 0, 0)
	g := Rules{}.Infer(capture.StripOracle(ios))
	roots := g.RootCauses(faultID)
	if len(roots) == 0 {
		t.Fatal("no root causes inferred")
	}
	found := false
	for _, r := range roots {
		if r.ID == ccID {
			found = true
		}
	}
	if !found {
		t.Fatalf("config change %d not among inferred roots %v", ccID, roots)
	}
}

func TestRulesHighAccuracyOnCleanClocks(t *testing.T) {
	ios, _, _ := fig2Log(t, 0, 0)
	g := Rules{}.Infer(capture.StripOracle(ios))
	m := Evaluate(g, ios)
	if m.Precision < 0.9 {
		t.Fatalf("rules precision = %.2f (TP=%d FP=%d FN=%d)", m.Precision, m.TP, m.FP, m.FN)
	}
	if m.Recall < 0.9 {
		t.Fatalf("rules recall = %.2f (TP=%d FP=%d FN=%d)", m.Recall, m.TP, m.FP, m.FN)
	}
}

func TestRulesSurviveModerateClockSkew(t *testing.T) {
	ios, ccID, faultID := fig2Log(t, 3*time.Millisecond, time.Millisecond)
	g := Rules{}.Infer(capture.StripOracle(ios))
	roots := g.RootCauses(faultID)
	found := false
	for _, r := range roots {
		if r.ID == ccID {
			found = true
		}
	}
	if !found {
		t.Fatalf("root cause lost under skew: %v", roots)
	}
}

func TestTimestampStrategyIsPoor(t *testing.T) {
	ios, _, _ := fig2Log(t, 0, 0)
	stripped := capture.StripOracle(ios)
	ts := Timestamp{}.Infer(stripped)
	rules := Rules{}.Infer(stripped)
	mt := Evaluate(ts, ios)
	mr := Evaluate(rules, ios)
	if mt.Precision >= mr.Precision {
		t.Fatalf("timestamp precision %.2f should be below rules %.2f", mt.Precision, mr.Precision)
	}
	// Timestamp chains also miss every cross-router dependency.
	for _, e := range ts.Edges() {
		a, _ := ts.Node(e.From)
		b, _ := ts.Node(e.To)
		if a.Router != b.Router {
			t.Fatalf("timestamp strategy produced cross-router edge %v", e)
		}
	}
}

func TestPrefixStrategyHighRecallLowPrecision(t *testing.T) {
	ios, _, _ := fig2Log(t, 0, 0)
	stripped := capture.StripOracle(ios)
	pg := Prefix{}.Infer(stripped)
	rg := Rules{}.Infer(stripped)
	mp := Evaluate(pg, ios)
	mr := Evaluate(rg, ios)
	// Prefix matching recovers most route-carrying dependencies but (being
	// only a filter) misses prefix-less causes like config -> soft-reconfig.
	if mp.Recall < 0.8 {
		t.Fatalf("prefix recall %.2f too low", mp.Recall)
	}
	if mp.Precision >= mr.Precision {
		t.Fatalf("prefix precision %.2f should be below rules %.2f", mp.Precision, mr.Precision)
	}
	if pg.EdgeCount() <= rg.EdgeCount() {
		t.Fatalf("prefix should over-generate edges: %d vs rules %d", pg.EdgeCount(), rg.EdgeCount())
	}
}

func TestPatternsLearnFromReference(t *testing.T) {
	// Train on a healthy convergence run, infer on the broken run.
	opt := network.DefaultPaperOpts()
	pn, err := network.BuildPaper(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	ref := capture.StripOracle(pn.Log.Snapshot())

	ios, _, faultID := fig2Log(t, 0, 0)
	model := Miner{}.Train(ref)
	if model.Pairs(0.9) == 0 {
		t.Fatal("no high-confidence patterns learned")
	}
	g := Patterns{Model: model}.Infer(capture.StripOracle(ios))
	if g.EdgeCount() == 0 {
		t.Fatal("patterns inferred nothing")
	}
	// Provenance from the fault reaches r2 via inferred pattern edges.
	prov := g.Provenance(faultID)
	reachesR2 := false
	for _, io := range prov {
		if io.Router == "r2" {
			reachesR2 = true
		}
	}
	if !reachesR2 {
		t.Fatal("pattern provenance never crosses to r2")
	}
}

func TestCombinedAtLeastAsGoodAsRules(t *testing.T) {
	pnRef, err := network.BuildPaper(3, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pnRef.Start()
	if err := pnRef.Run(); err != nil {
		t.Fatal(err)
	}
	ref := capture.StripOracle(pnRef.Log.Snapshot())
	model := Miner{}.Train(ref)

	ios, _, _ := fig2Log(t, 0, 0)
	stripped := capture.StripOracle(ios)
	rg := Rules{}.Infer(stripped)
	cg := Combined{Rules: Rules{}, Patterns: Patterns{Model: model}}.Infer(stripped)
	mr := Evaluate(rg, ios)
	mc := Evaluate(cg, ios)
	if mc.Recall < mr.Recall {
		t.Fatalf("combined recall %.2f below rules %.2f", mc.Recall, mr.Recall)
	}
}

func TestEIGRPRuleUsesFIBParent(t *testing.T) {
	// Build a small EIGRP network and check the inferred parent of a send
	// is the FIB install (§4.1's protocol-specific rule).
	n := network.New(1)
	for _, r := range []struct{ name, lb string }{{"a", "1.1.1.1"}, {"b", "2.2.2.2"}, {"c", "3.3.3.3"}} {
		if _, err := n.AddRouter(r.name, r.lb, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := n.Configure(r.name, &config.Router{EIGRP: config.EIGRPConfig{Enabled: true, ASN: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	mustLink := func(a, b, subnet, aa, ba string) {
		if _, err := n.Topo.AddLink(network.LinkSpecOf(a, b, subnet, netip.MustParseAddr(aa), netip.MustParseAddr(ba))); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("a", "b", "10.0.1.0/30", "10.0.1.1", "10.0.1.2")
	mustLink("b", "c", "10.0.2.0/30", "10.0.2.1", "10.0.2.2")
	if _, err := n.Topo.AddStub("a", "lan0", netip.MustParseAddr("172.16.0.1"), route.MustPrefix("172.16.0.0/24")); err != nil {
		t.Fatal(err)
	}
	if err := n.Build(); err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	ios := n.Log.Snapshot()
	g := Rules{}.Infer(capture.StripOracle(ios))
	// Find b's EIGRP send of the LAN prefix toward c and check its parent.
	var send capture.IO
	for _, io := range ios {
		if io.Router == "b" && io.Type == capture.SendAdvert && io.Proto == route.ProtoEIGRP &&
			io.Peer == "c" && io.Prefix == route.MustPrefix("172.16.0.0/24") {
			send = io
		}
	}
	if send.ID == 0 {
		t.Fatal("no EIGRP send found")
	}
	parents := g.Parents(send.ID)
	if len(parents) == 0 {
		t.Fatal("send has no inferred parent")
	}
	parent, _ := g.Node(parents[0])
	if parent.Type != capture.FIBInstall {
		t.Fatalf("EIGRP send parent = %v, want FIB install", parent)
	}
}

func TestBGPRuleUsesRIBParent(t *testing.T) {
	ios, _, _ := fig2Log(t, 0, 0)
	g := Rules{}.Infer(capture.StripOracle(ios))
	var send capture.IO
	for _, io := range ios {
		if io.Router == "r2" && io.Type == capture.SendAdvert && io.Proto == route.ProtoBGP && io.Peer == "r1" {
			send = io
			break
		}
	}
	if send.ID == 0 {
		t.Fatal("no BGP send found")
	}
	parents := g.Parents(send.ID)
	if len(parents) == 0 {
		t.Fatal("no parent inferred for BGP send")
	}
	parent, _ := g.Node(parents[0])
	if parent.Type != capture.RIBInstall && parent.Type != capture.RIBRemove {
		t.Fatalf("BGP send parent = %v, want RIB event (§4.1)", parent)
	}
}

func TestSoftReconfigLongGapMatched(t *testing.T) {
	// §7: the TTY config precedes the soft reconfiguration by ~25s; the
	// rule matcher must still connect them via the config window.
	opt := network.DefaultPaperOpts()
	pn, err := network.BuildPaper(4, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.SoftReconfigDelay = 25 * time.Second
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	mark := pn.Log.Len()
	cc, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	ios := pn.Log.Snapshot()[mark:]
	g := Rules{}.Infer(capture.StripOracle(ios))
	var soft capture.IO
	for _, io := range ios {
		if io.Router == "r2" && io.Type == capture.SoftReconfig {
			soft = io
		}
	}
	if soft.ID == 0 {
		t.Fatal("no soft reconfig")
	}
	if !slices.Contains(g.Parents(soft.ID), cc.ID) {
		t.Fatal("25s config->soft-reconfig HBR not inferred")
	}
}

func TestEvaluateCornerCases(t *testing.T) {
	empty := hbg.New()
	m := Evaluate(empty, nil)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Fatalf("empty metrics = %+v", m)
	}
	// Perfect inference.
	ios := []capture.IO{
		{ID: 1, Router: "a", Type: capture.RecvAdvert},
		{ID: 2, Router: "a", Type: capture.RIBInstall, Causes: []uint64{1}},
	}
	g := hbg.New()
	g.AddNode(ios[0])
	g.AddNode(ios[1])
	g.AddEdge(1, 2)
	m = Evaluate(g, ios)
	if m.Precision != 1 || m.Recall != 1 || m.F1 != 1 {
		t.Fatalf("perfect metrics = %+v", m)
	}
}

// TestStrategiesLineup: E8 compares §4.2's five strategies, in this order,
// and none drops a vertex.
func TestStrategiesLineup(t *testing.T) {
	ios, _, _ := fig2Log(t, 0, 0)
	var names []string
	for _, s := range Baselines(capture.StripOracle(ios), 0) {
		names = append(names, s.Name)
		if g := s.Infer(capture.StripOracle(ios)); g.NodeCount() != len(ios) {
			t.Fatalf("%s dropped nodes", s.Name)
		}
	}
	if want := []string{"timestamp", "prefix", "rules", "patterns", "combined"}; !slices.Equal(names, want) {
		t.Fatalf("lineup = %v, want %v", names, want)
	}
}

func TestSortIOsByObservedTime(t *testing.T) {
	ios := []capture.IO{{ID: 2, Time: 100}, {ID: 1, Time: 50}, {ID: 3, Time: 100}}
	out := SortIOsByObservedTime(ios)
	if out[0].ID != 1 || out[1].ID != 2 || out[2].ID != 3 {
		t.Fatalf("order = %v", out)
	}
	if ios[0].ID != 2 {
		t.Fatal("input mutated")
	}
}

// SortIOsByObservedTime sorts a copy of ios in collector order (observed
// time, then ID) — the order an offline analyzer would see.
func SortIOsByObservedTime(ios []capture.IO) []capture.IO {
	out := append([]capture.IO(nil), ios...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].ID < out[j].ID
	})
	return out
}
