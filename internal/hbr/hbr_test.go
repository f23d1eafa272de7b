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
	"hbverify/internal/netsim"
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

// TestChannelsHoldUnderSkewBeyondTheWindow: b's clock runs 700 ms fast,
// more than the 500 ms the nearest-send window allowed. a advertises P
// twice, 600 ms apart, and b logs each receive 8 ms after its send. The
// window pairs the first receive with the second send (108 ms away, the
// first being 708 ms) and leaves the second with none; the channel pairs
// each receive with its own send, as ground truth has it.
func TestChannelsHoldUnderSkewBeyondTheWindow(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	at := func(ms int) netsim.VirtualTime {
		return netsim.VirtualTime(10*time.Second + time.Duration(ms)*time.Millisecond)
	}
	const skew = 700
	ios := []capture.IO{
		{ID: 1, Router: "a", Peer: "b", Type: capture.SendAdvert, Proto: route.ProtoBGP, Prefix: pfx, Time: at(0)},
		{ID: 2, Router: "b", Peer: "a", Type: capture.RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx, Time: at(8 + skew), Causes: []uint64{1}},
		{ID: 3, Router: "a", Peer: "b", Type: capture.SendAdvert, Proto: route.ProtoBGP, Prefix: pfx, Time: at(600)},
		{ID: 4, Router: "b", Peer: "a", Type: capture.RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx, Time: at(608 + skew), Causes: []uint64{3}},
	}
	idx := buildRefIndex(ios)
	if send, _ := idx.matchSendForRecv(ios[1], 500*time.Millisecond); send.ID != 3 {
		t.Fatalf("the window paired receive 2 with send %d; the case no longer shows it pairing wrongly", send.ID)
	}
	if _, ok := idx.matchSendForRecv(ios[3], 500*time.Millisecond); ok {
		t.Fatal("the window found a send for receive 4; the case no longer shows it missing one")
	}
	g := Rules{}.Infer(capture.StripOracle(ios))
	if got, want := g.Edges(), []hbg.Edge{{From: 1, To: 2}, {From: 3, To: 4}}; !slices.Equal(got, want) {
		t.Fatalf("channel edges = %v, want %v", got, want)
	}
	if m := Evaluate(g, ios); m.Precision != 1 || m.Recall != 1 {
		t.Fatalf("against ground truth: %+v", m)
	}
}

// TestLostLineCostsOnePair: a session reorders nothing, so a message a
// later one of the other side passes over has lost its other half. One lost
// receive line, and one lost send line whose receive is logged ahead of
// the next send, each cost one desync and leave every later pair as it is:
// the channel does not wedge behind them. The reference agrees.
func TestLostLineCostsOnePair(t *testing.T) {
	msg := func(id uint64, router string, typ capture.Type, pfx string) capture.IO {
		peer := map[string]string{"a": "b", "b": "a"}[router]
		return capture.IO{ID: id, Router: router, Peer: peer, Type: typ, Proto: route.ProtoBGP,
			Prefix: netip.MustParsePrefix(pfx), Time: netsim.VirtualTime(id) * netsim.VirtualTime(time.Millisecond)}
	}
	ios := []capture.IO{
		msg(1, "a", capture.SendAdvert, "10.0.1.0/24"), // its receive line is lost
		msg(2, "a", capture.SendAdvert, "10.0.2.0/24"),
		msg(3, "b", capture.RecvAdvert, "10.0.2.0/24"),
		msg(4, "a", capture.SendAdvert, "10.0.3.0/24"),
		msg(5, "b", capture.RecvAdvert, "10.0.3.0/24"),
		msg(6, "b", capture.RecvAdvert, "10.0.4.0/24"), // its send line is lost
		msg(7, "b", capture.RecvAdvert, "10.0.5.0/24"), // logged ahead of its send
		msg(8, "a", capture.SendAdvert, "10.0.5.0/24"),
		msg(9, "a", capture.SendAdvert, "10.0.6.0/24"),
		msg(10, "b", capture.RecvAdvert, "10.0.6.0/24"),
	}
	want := []int32{-1, -1, 1, -1, 3, -1, 7, -1, -1, 8}
	if got := Pair(capture.ViewOf(ios)); !slices.Equal(got, want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	c := pairView(capture.ViewOf(ios), func(i int) uint64 { return uint64(i) }, func(uint64, uint64) {})
	if c.desync != 2 {
		t.Fatalf("%d desyncs, want 2", c.desync)
	}
	fast, ref := Rules{}.Infer(ios), ReferenceRules(Rules{}, ios)
	if !slices.Equal(fast.Edges(), ref.Edges()) {
		t.Fatalf("fast %v, reference %v", fast.Edges(), ref.Edges())
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
	mustLink := func(a, b, subnet string) {
		if _, err := n.Topo.AddLink(network.LinkSpecOf(a, b, subnet)); err != nil {
			t.Fatal(err)
		}
	}
	mustLink("a", "b", "10.0.1.0/30")
	mustLink("b", "c", "10.0.2.0/30")
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
