package localck

import (
	"net/netip"
	"testing"

	"hbverify/internal/fault"
)

var classP = netip.MustParsePrefix("203.0.113.0/24")
var classQ = netip.MustParsePrefix("198.51.100.0/24")

// fixture: a -> b -> c (c delivers P); d loops with e for P; f is dropped.
func fixtureFwd(router string, class netip.Prefix) ([]string, bool, bool) {
	if class != classP {
		return nil, false, false
	}
	switch router {
	case "a":
		return []string{"b"}, false, false
	case "b":
		return []string{"c"}, false, false
	case "c":
		return nil, true, false
	case "d":
		return []string{"e"}, false, false
	case "e":
		return []string{"d"}, false, false
	case "f":
		return nil, false, false
	case "g":
		return []string{"b", "c"}, false, false // ECMP: both branches labeled
	case "h":
		return []string{"c"}, false, true // broken resolution
	}
	return nil, false, false
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

func cleanState(nexts ...string) ClassState {
	return ClassState{HasRoute: true, Nexts: nexts, Canonical: true}
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
	if vs := ckc.CheckClass("c", classP, ClassState{HasRoute: true, Delivered: true, Canonical: true}); len(vs) != 0 {
		t.Fatalf("egress should be quiet, got %v", vs)
	}
	// Unlabeled router with no state is quiet.
	ckf := checkerFor(t, "f")
	if vs := ckf.CheckClass("f", classP, ClassState{Canonical: true}); len(vs) != 0 {
		t.Fatalf("unlabeled+stateless should be quiet, got %v", vs)
	}
}

func TestCheckClassViolations(t *testing.T) {
	ck := checkerFor(t, "a", "b", "g")

	// Route withdrawn entirely.
	vs := ck.CheckClass("a", classP, ClassState{Canonical: true})
	if findInv(vs, InvNoRoute) == nil {
		t.Fatalf("want no-route, got %v", vs)
	}

	// Stuck resolution.
	st := cleanState()
	st.Stuck = true
	st.Hops = []netip.Addr{netip.MustParseAddr("10.0.0.1")}
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
	st.SelfLoop = true
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
	st.Canonical = false
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
	states := map[netip.Prefix]ClassState{
		classP: cleanState("b"),
	}
	calls := 0
	vs := ck.Check("a", func(c netip.Prefix) ClassState {
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

func TestSkipBugSilencesChecker(t *testing.T) {
	ck := checkerFor(t, "a", "b")
	defer fault.Inject(fault.SkipLocalCheck)()
	if vs := ck.CheckClass("a", classP, ClassState{}); len(vs) != 0 {
		t.Fatalf("skip bug must silence checks, got %v", vs)
	}
	if vs := ck.Check("a", func(netip.Prefix) ClassState { return ClassState{} }); vs != nil {
		t.Fatalf("skip bug must silence Check, got %v", vs)
	}
}

func TestDisabledChecker(t *testing.T) {
	var ck Checker
	if ck.Enabled() {
		t.Fatal("zero checker must be disabled")
	}
	if vs := ck.CheckClass("a", classP, ClassState{}); len(vs) != 0 {
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
