package localck

import (
	"net/netip"
	"testing"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
)

var classP = netip.MustParsePrefix("203.0.113.0/24")
var classQ = netip.MustParsePrefix("198.51.100.0/24")

// fixture: a -> b -> c (c delivers P); d loops with e for P; f is dropped.
func fixtureFwd(router string, class netip.Prefix) dataplane.Expansion {
	if class != classP {
		return dataplane.Expansion{}
	}
	switch router {
	case "a":
		return dataplane.Expansion{Nexts: []string{"b"}}
	case "b":
		return dataplane.Expansion{Nexts: []string{"c"}}
	case "c":
		return dataplane.Expansion{Delivered: true}
	case "d":
		return dataplane.Expansion{Nexts: []string{"e"}}
	case "e":
		return dataplane.Expansion{Nexts: []string{"d"}}
	case "f":
		return dataplane.Expansion{Dropped: true}
	case "g":
		return dataplane.Expansion{Nexts: []string{"b", "c"}} // ECMP: both branches labeled
	case "h":
		return dataplane.Expansion{Stuck: true, Nexts: []string{"c"}} // broken resolution
	}
	return dataplane.Expansion{}
}

var fixtureRouters = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

func deriveFixture(t *testing.T) *LabelSet {
	t.Helper()
	return Derive(fixtureRouters, []netip.Prefix{classP, classQ}, fixtureFwd, 7)
}

func TestDeriveLabels(t *testing.T) {
	ls := deriveFixture(t)
	want := map[string]int{
		"a": 2, "b": 1, "c": 0,
		"d": Unreachable, "e": Unreachable, // loop
		"f": Unreachable, // dropped
		"g": 2,           // 1 + max(label(b)=1, label(c)=0)
		"h": Unreachable, // broken
	}
	for r, w := range want {
		if got := ls.Label(r, classP); got != w {
			t.Errorf("label(%s, P) = %d, want %d", r, got, w)
		}
	}
	// Q is unreachable everywhere.
	for _, r := range fixtureRouters {
		if got := ls.Label(r, classQ); got != Unreachable {
			t.Errorf("label(%s, Q) = %d, want unreachable", r, got)
		}
	}
	if ls.Epoch != 7 {
		t.Fatalf("epoch = %d", ls.Epoch)
	}
	for r, m := range ls.dist {
		for c := range m {
			if c != classP {
				t.Fatalf("%s labels class %v, want only %v", r, c, classP)
			}
		}
	}
}

func TestNodeSlicing(t *testing.T) {
	ls := deriveFixture(t)
	nl := ls.Node("a", []string{"b", "d", "a"})
	if nl.OwnLabel(classP) != 2 {
		t.Fatalf("own = %d", nl.OwnLabel(classP))
	}
	if nl.PeerLabel("b", classP) != 1 {
		t.Fatalf("peer b = %d", nl.PeerLabel("b", classP))
	}
	if nl.PeerLabel("d", classP) != Unreachable {
		t.Fatalf("peer d = %d", nl.PeerLabel("d", classP))
	}
	if _, ok := nl.Peers["a"]; ok {
		t.Fatalf("self included in peers")
	}
	if nl.PeerLabel("zzz", classP) != Unreachable {
		t.Fatalf("unknown peer should be unreachable")
	}
}

func checkerFor(t *testing.T, router string, peers ...string) *Checker {
	t.Helper()
	ls := deriveFixture(t)
	return &Checker{Labels: ls.Node(router, peers)}
}

func cleanState(nexts ...string) dataplane.Step {
	return dataplane.Step{Expansion: dataplane.Expansion{Nexts: nexts}, HasRoute: true}
}

func findInv(vs []Violation, inv Invariant) *Violation {
	for i := range vs {
		if vs[i].Invariant == inv {
			return &vs[i]
		}
	}
	return nil
}

func TestCheckClassQuietOnEpochState(t *testing.T) {
	ck := checkerFor(t, "a", "b")
	if vs := ck.CheckClass("a", classP, cleanState("b")); len(vs) != 0 {
		t.Fatalf("epoch state should be quiet, got %v", vs)
	}
	// Egress: delivered, no onward hops.
	ckc := checkerFor(t, "c")
	if vs := ckc.CheckClass("c", classP, dataplane.Step{Expansion: dataplane.Expansion{Delivered: true}, HasRoute: true}); len(vs) != 0 {
		t.Fatalf("egress should be quiet, got %v", vs)
	}
	// Unlabeled router with no state is quiet.
	ckf := checkerFor(t, "f")
	if vs := ckf.CheckClass("f", classP, dataplane.Step{}); len(vs) != 0 {
		t.Fatalf("unlabeled+stateless should be quiet, got %v", vs)
	}
}

func TestCheckClassViolations(t *testing.T) {
	ck := checkerFor(t, "a", "b", "g")

	// Route withdrawn entirely.
	vs := ck.CheckClass("a", classP, dataplane.Step{})
	if findInv(vs, InvNoRoute) == nil {
		t.Fatalf("want no-route, got %v", vs)
	}

	// Stuck resolution.
	st := cleanState()
	st.Stuck = true
	st.Entry.NextHop = netip.MustParseAddr("10.0.0.1")
	vs = ck.CheckClass("a", classP, st)
	v := findInv(vs, InvNextHopLive)
	if v == nil {
		t.Fatalf("want next-hop-live, got %v", vs)
	}
	if len(v.SuspectHops) != 1 {
		t.Fatalf("suspect hops not carried: %+v", v)
	}

	// Self-loop resolution.
	st = cleanState()
	st.Cycle = true
	if findInv(ck.CheckClass("a", classP, st), InvSelfLoop) == nil {
		t.Fatal("want self-loop")
	}

	// Monotonicity: g has the same label as a (2), so a -> g must flag.
	if findInv(ck.CheckClass("a", classP, cleanState("g")), InvLabelMonotone) == nil {
		t.Fatal("want label-monotone for equal-label next")
	}

	// Unlabeled next router flags stale.
	if findInv(ck.CheckClass("a", classP, cleanState("d")), InvLabelStale) == nil {
		t.Fatal("want label-stale for unlabeled next")
	}

	// Non-canonical ECMP set.
	st = cleanState("b")
	h1, h2 := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	st.Entry = fib.Entry{NextHop: h2, NextHops: []netip.Addr{h2, h1}}
	if findInv(ck.CheckClass("a", classP, st), InvEcmpSet) == nil {
		t.Fatal("want ecmp-set")
	}

	// Route that resolves to nothing.
	if findInv(ck.CheckClass("a", classP, cleanState()), InvNextHopLive) == nil {
		t.Fatal("want next-hop-live for empty resolution")
	}

	// Unlabeled router growing forwarding state flags stale.
	ckf := checkerFor(t, "f", "c")
	if findInv(ckf.CheckClass("f", classP, cleanState("c")), InvLabelStale) == nil {
		t.Fatal("want label-stale for unlabeled router with a route")
	}
}

func TestCheckRunsAllClasses(t *testing.T) {
	ck := checkerFor(t, "a", "b")
	states := map[netip.Prefix]dataplane.Step{
		classP: cleanState("b"),
	}
	calls := 0
	vs := ck.Check("a", func(c netip.Prefix) dataplane.Step {
		calls++
		return states[c]
	})
	// Only P is labeled for a, so only one class is consulted.
	if calls != 1 {
		t.Fatalf("state consulted %d times", calls)
	}
	if len(vs) != 0 {
		t.Fatalf("unexpected violations %v", vs)
	}
}

// TestSkipBugSilencesChecker: a labeled router that lost its route is
// flagged by CheckClass and by Check — the flags the skip-local-check
// mutation in .github/mutate.go silences.
func TestSkipBugSilencesChecker(t *testing.T) {
	ck := checkerFor(t, "a", "b")
	if vs := ck.CheckClass("a", classP, dataplane.Step{}); len(vs) == 0 {
		t.Fatal("CheckClass left a labeled router with no route unflagged")
	}
	if vs := ck.Check("a", func(netip.Prefix) dataplane.Step { return dataplane.Step{} }); len(vs) == 0 {
		t.Fatal("Check left a labeled router with no route unflagged")
	}
}

func TestDisabledChecker(t *testing.T) {
	var ck Checker
	if ck.Enabled() {
		t.Fatal("zero checker must be disabled")
	}
	if vs := ck.CheckClass("a", classP, dataplane.Step{}); len(vs) != 0 {
		t.Fatalf("disabled checker flagged %v", vs)
	}
}

func TestCanonicalHops(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	b := netip.MustParseAddr("10.0.0.2")
	if !CanonicalHops(nil) || !CanonicalHops([]netip.Addr{a}) || !CanonicalHops([]netip.Addr{a, b}) {
		t.Fatal("sorted sets must be canonical")
	}
	if CanonicalHops([]netip.Addr{b, a}) || CanonicalHops([]netip.Addr{a, a}) {
		t.Fatal("unsorted/duplicated sets must not be canonical")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Router: "a", Prefix: classP, Invariant: InvLabelMonotone, Detail: "x"}
	if s := v.String(); s == "" {
		t.Fatal("empty string")
	}
	if Invariant(200).String() == "" {
		t.Fatal("unknown invariant must still print")
	}
}
