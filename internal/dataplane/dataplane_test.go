package dataplane_test

import (
	"net/netip"
	"reflect"
	"testing"

	// Dot import: network now builds walkers, so these tests cannot live in
	// package dataplane without an import cycle.
	. "hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/topology"
)

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

func liveWalker(pn *network.PaperNet) *Walker { return pn.LiveWalker() }

func TestDeliveryViaPreferredExit(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	w := liveWalker(pn)
	walk := w.ForwardPrefix("r3", pn.P)
	if walk.Outcome != Delivered {
		t.Fatalf("walk = %v", walk)
	}
	if walk.Egress != "e2" {
		t.Fatalf("egress = %s, want e2 (policy: prefer R2's uplink); path %v", walk.Egress, walk.Path)
	}
	// Path goes r3 -> r2 -> e2.
	if len(walk.Path) != 3 || walk.Path[1] != "r2" {
		t.Fatalf("path = %v", walk.Path)
	}
}

func TestDeliveryViaFallbackExit(t *testing.T) {
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE2 = false
	pn := startPaper(t, opt)
	w := liveWalker(pn)
	walk := w.ForwardPrefix("r3", pn.P)
	if walk.Outcome != Delivered || walk.Egress != "e1" {
		t.Fatalf("walk = %v", walk)
	}
}

func TestDropWithoutRoute(t *testing.T) {
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE1, opt.AdvertiseE2 = false, false
	pn := startPaper(t, opt)
	w := liveWalker(pn)
	walk := w.ForwardPrefix("r3", pn.P)
	if walk.Outcome != Dropped {
		t.Fatalf("walk = %v, want dropped", walk)
	}
}

func TestLoopDetection(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	// Hand-craft an inconsistent snapshot: r1 points at r2, r2 points at
	// r1 (the Fig. 1c phantom loop).
	snap := pn.FIBSnapshot()
	snap["r1"][pn.P] = fib.Entry{Prefix: pn.P, NextHop: addr("2.2.2.2")}
	snap["r2"][pn.P] = fib.Entry{Prefix: pn.P, NextHop: addr("1.1.1.1")}
	w := NewWalker(pn.Topo, SnapshotView(snap))
	walk := w.ForwardPrefix("r3", pn.P)
	if walk.Outcome != Looped {
		t.Fatalf("walk = %v, want looped", walk)
	}
}

func TestRecursiveNextHopResolution(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	w := liveWalker(pn)
	// r3's BGP next hop is 2.2.2.2 (r2's loopback), not directly
	// connected: resolution goes through r3's OSPF route.
	walk := w.Forward("r3", Representative(pn.P))
	if walk.Outcome != Delivered {
		t.Fatalf("recursive resolution failed: %v", walk)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	w := liveWalker(pn)
	walk := w.Forward("r3", addr("2.2.2.2"))
	if walk.Outcome != Delivered || walk.Egress != "r2" {
		t.Fatalf("walk to loopback = %v", walk)
	}
	// Delivery at self.
	self := w.Forward("r3", addr("3.3.3.3"))
	if self.Outcome != Delivered || self.Egress != "r3" {
		t.Fatalf("self walk = %v", self)
	}
}

func TestStuckOnUnresolvableNextHop(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	snap := pn.FIBSnapshot()
	// r3 points at an address nobody owns and no route covers.
	snap["r3"][pn.P] = fib.Entry{Prefix: pn.P, NextHop: addr("99.99.99.99")}
	delete(snap["r3"], pfx("0.0.0.0/0"))
	w := NewWalker(pn.Topo, SnapshotView(snap))
	walk := w.ForwardPrefix("r3", pn.P)
	if walk.Outcome != Stuck {
		t.Fatalf("walk = %v, want stuck", walk)
	}
}

func TestSnapshotViewLPM(t *testing.T) {
	snap := map[string]map[netip.Prefix]fib.Entry{
		"a": {
			pfx("0.0.0.0/0"):  {Prefix: pfx("0.0.0.0/0"), NextHop: addr("1.1.1.1")},
			pfx("10.0.0.0/8"): {Prefix: pfx("10.0.0.0/8"), NextHop: addr("2.2.2.2")},
		},
	}
	v := SnapshotView(snap)
	if e, ok := v("a", addr("10.1.1.1")); !ok || e.NextHop != addr("2.2.2.2") {
		t.Fatalf("lpm = %+v %v", e, ok)
	}
	if e, ok := v("a", addr("8.8.8.8")); !ok || e.NextHop != addr("1.1.1.1") {
		t.Fatalf("default = %+v %v", e, ok)
	}
	if _, ok := v("zzz", addr("8.8.8.8")); ok {
		t.Fatal("unknown router matched")
	}
}

func TestRepresentative(t *testing.T) {
	if got := Representative(pfx("10.0.0.0/24")); got != addr("10.0.0.1") {
		t.Fatalf("rep = %v", got)
	}
	if got := Representative(pfx("5.5.5.5/32")); got != addr("5.5.5.5") {
		t.Fatalf("host rep = %v", got)
	}
}

func TestWalkString(t *testing.T) {
	w := Walk{Dst: addr("10.0.0.1"), Outcome: Looped, Path: []string{"a", "b", "a"}}
	if got := w.String(); got != "10.0.0.1: looped [a -> b -> a]" {
		t.Fatalf("String = %q", got)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Delivered: "delivered", Dropped: "dropped", Looped: "looped", Stuck: "stuck",
		DivergentEgress: "divergent-egress", PartialBlackhole: "partial-blackhole",
	} {
		if o.String() != want {
			t.Fatalf("%d = %q", o, o.String())
		}
	}
}

// expandMap adapts a hand-built expansion table to an ExpandFunc; routers
// absent from the map drop (no route).
func expandMap(m map[string]Expansion) ExpandFunc {
	return func(r string) Expansion {
		if ex, ok := m[r]; ok {
			return ex
		}
		return Expansion{Dropped: true}
	}
}

// TestSymbolicWalkTaxonomy drives the shared DFS engine over hand-built
// expansions and pins the aggregate outcome for every branch combination
// the ECMP taxonomy distinguishes.
func TestSymbolicWalkTaxonomy(t *testing.T) {
	dst := addr("10.0.0.1")
	cases := []struct {
		name     string
		exps     map[string]Expansion
		outcome  Outcome
		egresses []string
		branches int
	}{
		{
			name: "divergent-egress",
			exps: map[string]Expansion{
				"s": {Nexts: []string{"a", "b"}},
				"a": {Delivered: true}, "b": {Delivered: true},
			},
			outcome: DivergentEgress, egresses: []string{"a", "b"}, branches: 1,
		},
		{
			name: "partial-blackhole-drop",
			exps: map[string]Expansion{
				"s": {Nexts: []string{"a", "b"}},
				"a": {Delivered: true},
			},
			outcome: PartialBlackhole, egresses: []string{"a"}, branches: 1,
		},
		{
			name: "partial-blackhole-stuck",
			exps: map[string]Expansion{
				"s": {Nexts: []string{"a", "b"}},
				"a": {Delivered: true}, "b": {Stuck: true},
			},
			outcome: PartialBlackhole, egresses: []string{"a"}, branches: 1,
		},
		{
			name: "loop-wins-over-delivery",
			exps: map[string]Expansion{
				"s": {Nexts: []string{"a", "b"}},
				"a": {Delivered: true}, "b": {Nexts: []string{"s"}},
			},
			outcome: Looped, egresses: []string{"a"}, branches: 1,
		},
		{
			name: "all-branches-stuck",
			exps: map[string]Expansion{
				"s": {Nexts: []string{"a", "b"}},
				"a": {Stuck: true}, "b": {Stuck: true},
			},
			outcome: Stuck, egresses: []string{}, branches: 1,
		},
		{
			name: "converged-single-egress",
			exps: map[string]Expansion{
				"s": {Nexts: []string{"a", "b"}},
				"a": {Nexts: []string{"c"}}, "b": {Nexts: []string{"c"}},
				"c": {Delivered: true},
			},
			outcome: Delivered, egresses: []string{"c"}, branches: 1,
		},
		{
			name: "terminal-flag-beside-forward-is-a-branch",
			exps: map[string]Expansion{
				"s": {Delivered: true, Nexts: []string{"a"}},
				"a": {Delivered: true},
			},
			outcome: DivergentEgress, egresses: []string{"a", "s"}, branches: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := SymbolicWalk("s", dst, 16, expandMap(tc.exps))
			if w.Outcome != tc.outcome {
				t.Fatalf("outcome = %v, want %v (walk %+v)", w.Outcome, tc.outcome, w)
			}
			if w.Branches != tc.branches {
				t.Fatalf("branches = %d, want %d", w.Branches, tc.branches)
			}
			if !reflect.DeepEqual(w.Egresses, tc.egresses) {
				t.Fatalf("egresses = %v, want %v", w.Egresses, tc.egresses)
			}
		})
	}
}

// TestSymbolicWalkUnbranchedLegacyShape pins the pre-ECMP representation
// for single-path walks: no Branches, nil Edges/Egresses, Path as the hop
// sequence — the byte-compat contract the dist transport and walk caches
// rely on.
func TestSymbolicWalkUnbranchedLegacyShape(t *testing.T) {
	w := SymbolicWalk("s", addr("10.0.0.1"), 16, expandMap(map[string]Expansion{
		"s": {Nexts: []string{"a"}},
		"a": {Nexts: []string{"b"}},
		"b": {Delivered: true},
	}))
	if w.Outcome != Delivered || w.Egress != "b" || w.Branches != 0 {
		t.Fatalf("walk = %+v", w)
	}
	if w.Edges != nil || w.Egresses != nil {
		t.Fatalf("unbranched walk leaked DAG fields: %+v", w)
	}
	if !reflect.DeepEqual(w.Path, []string{"s", "a", "b"}) {
		t.Fatalf("path = %v", w.Path)
	}
}

// diamondWalker builds a live four-router diamond (s fans out to a and b,
// both converge on d, which owns the destination as a stub LAN) with a
// multipath FIB entry at s, returning the walker.
func diamondWalker(t *testing.T) *Walker {
	t.Helper()
	p := pfx("55.0.0.0/24")
	topo := topology.New()
	for i, r := range []string{"s", "a", "b", "d"} {
		if _, err := topo.AddRouter(r, netip.AddrFrom4([4]byte{9, 9, 9, byte(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	links := []struct {
		a, b   string
		subnet string
	}{
		{"s", "a", "10.0.1.0/30"}, {"s", "b", "10.0.2.0/30"},
		{"a", "d", "10.0.3.0/30"}, {"b", "d", "10.0.4.0/30"},
	}
	for _, l := range links {
		sub := pfx(l.subnet)
		a4 := sub.Addr().As4()
		if _, err := topo.AddLink(topology.LinkSpec{
			ARouter: l.a, AIface: "to-" + l.b, AAddr: netip.AddrFrom4([4]byte{a4[0], a4[1], a4[2], 1}),
			BRouter: l.b, BIface: "to-" + l.a, BAddr: netip.AddrFrom4([4]byte{a4[0], a4[1], a4[2], 2}),
			Prefix: sub,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := topo.AddStub("d", "lan", addr("55.0.0.254"), p); err != nil {
		t.Fatal(err)
	}
	snap := map[string]map[netip.Prefix]fib.Entry{
		"s": {p: {Prefix: p, NextHop: addr("10.0.1.2"),
			NextHops: []netip.Addr{addr("10.0.1.2"), addr("10.0.2.2")}}},
		"a": {p: {Prefix: p, NextHop: addr("10.0.3.2")}},
		"b": {p: {Prefix: p, NextHop: addr("10.0.4.2")}},
	}
	return NewWalker(topo, SnapshotView(snap))
}

// TestConcretePathsMatchSymbolic checks the differential the oracle relies
// on, at unit scale: enumerating every concrete path through the diamond
// and aggregating reproduces the symbolic walk's outcome, and each
// enumerated choice vector replays to the identical concrete walk.
func TestConcretePathsMatchSymbolic(t *testing.T) {
	w := diamondWalker(t)
	dst := addr("55.0.0.1")
	sym := w.Forward("s", dst)
	if sym.Outcome != Delivered || sym.Egress != "d" || sym.Branches != 1 {
		t.Fatalf("symbolic walk = %+v", sym)
	}
	probes := w.ConcretePaths("s", dst, 0)
	if len(probes) != 2 {
		t.Fatalf("paths = %d, want 2 (one per ECMP member)", len(probes))
	}
	walks := make([]Walk, len(probes))
	for i, pw := range probes {
		walks[i] = pw.Walk
		replayed := w.ForwardChoices("s", dst, pw.Choices)
		if !reflect.DeepEqual(replayed.Path, pw.Walk.Path) || replayed.Outcome != pw.Walk.Outcome {
			t.Fatalf("choices %v replay to %+v, enumerated %+v", pw.Choices, replayed, pw.Walk)
		}
	}
	agg, egresses := AggregateProbes(walks)
	if agg != sym.Outcome || !reflect.DeepEqual(egresses, sym.Egresses) {
		t.Fatalf("aggregate = %v %v, symbolic = %v %v", agg, egresses, sym.Outcome, sym.Egresses)
	}
}

// TestBugDropEcmpBranchVisible proves the injectable fault is observable
// exactly the way the symbolic-vs-probe oracle detects it: the bugged
// symbolic walk claims an unbranched path while probe enumeration (which
// the bug must not touch) still finds both members.
func TestBugDropEcmpBranchVisible(t *testing.T) {
	w := diamondWalker(t)
	dst := addr("55.0.0.1")
	w.BugDropEcmpBranch = true
	sym := w.Forward("s", dst)
	if sym.Branches != 0 {
		t.Fatalf("bugged walk still branches: %+v", sym)
	}
	if probes := w.ConcretePaths("s", dst, 0); len(probes) != 2 {
		t.Fatalf("probes = %d, want 2 (bug must not affect enumeration)", len(probes))
	}
}
