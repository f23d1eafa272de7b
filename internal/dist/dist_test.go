package dist

import (
	"bytes"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/snapshot"
	"hbverify/internal/verify"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }

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

// TestLocalViewExpandMatchesCentralWalker pins the implementations of the
// forwarding state against each other on a live network. A node's view,
// frozen from the live state, expands every probe address as the live
// state does. After a link flap and quiescence, a replay of the whole log
// agrees with the live state on every router's loopback, interfaces,
// Lookup, Exact, Walk and expansions; a replay under a cut that hides the
// flap differs from it at the flap's two ends and nowhere else.
func TestLocalViewExpandMatchesCentralWalker(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	live := pn.Live()
	probes := []netip.Addr{dataplane.Representative(pn.P), addr("203.0.113.9")}
	for _, r := range pn.Routers() {
		probes = append(probes, r.Topo.Loopback)
		for _, i := range r.Topo.Interfaces() {
			probes = append(probes, i.Addr)
		}
	}
	views := viewsOf(pn.Network)
	for _, r := range live.Routers() {
		for _, dst := range probes {
			if got, want := dataplane.StepOf(views[r], dst).Expansion, dataplane.Expand(live, r, dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s -> %s: node view %+v, live %+v", r, dst, got, want)
			}
		}
	}

	flap, err := pn.SetLinkUp("r2", "e2", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	log := pn.Log.View()
	if diff := differing(live, snapshot.ReplayState(pn.Topo, log, nil), probes); len(diff) != 0 {
		t.Fatalf("a replay of the whole log differs from the live state at %v", diff)
	}
	hidden := snapshot.Cut{}
	for _, io := range flap {
		hidden[io.Router] = io.Time - 1
	}
	if diff := differing(live, snapshot.ReplayState(pn.Topo, log, hidden), probes); !slices.Equal(diff, []string{"e2", "r2"}) {
		t.Fatalf("a replay under a cut hiding the flap differs from the live state at %v, want [e2 r2]", diff)
	}
}

// differing lists, sorted, the routers whose state differs between a and b
// in its loopback, its interfaces, its entries (Walk, and Exact at each),
// or its lookups and expansions at the probes.
func differing(a, b dataplane.Forwarding, probes []netip.Addr) []string {
	entries := func(s dataplane.State) []fib.Entry {
		var out []fib.Entry
		s.Walk(func(p netip.Prefix, e fib.Entry) bool {
			if x, ok := s.Exact(p); !ok || !x.Equal(e) {
				out = append(out, fib.Entry{}) // Exact disagrees with Walk
			}
			out = append(out, e)
			return true
		})
		return out
	}
	var out []string
	for _, r := range a.Routers() {
		sa, sb := a.State(r), b.State(r)
		if sb == nil {
			out = append(out, r)
			continue
		}
		same := sa.Loopback() == sb.Loopback() &&
			slices.Equal(sa.Ifaces(), sb.Ifaces()) &&
			slices.EqualFunc(entries(sa), entries(sb), fib.Entry.Equal)
		for _, dst := range probes {
			ea, oka := sa.Lookup(dst)
			eb, okb := sb.Lookup(dst)
			same = same && oka == okb && ea.Equal(eb) &&
				reflect.DeepEqual(dataplane.Expand(a, r, dst), dataplane.Expand(b, r, dst))
		}
		if !same {
			out = append(out, r)
		}
	}
	return out
}

func TestDistributedVerifyHealthy(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	stats, err := f.Verify(verify.NewChecker(nil, []string{"r1", "r2", "r3"}), []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Report.OK() {
		t.Fatalf("violations: %v", stats.Report.Violations)
	}
	if stats.Walks != 6 || stats.Report.Checked != 6 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Messages < stats.Walks {
		t.Fatalf("messages = %d", stats.Messages)
	}
}

func TestDistributedVerifyDetectsViolation(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	f := startFleet(t, pn.Network)
	stats, err := f.Verify(verify.NewChecker(nil, []string{"r1", "r2", "r3"}), []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Report.Violations) != 3 {
		t.Fatalf("violations = %v", stats.Report.Violations)
	}
}

func TestDistributedLoopDetection(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	// Sync two views corrupted into a loop.
	views := viewsOf(pn.Network)
	if err := ship(f, map[string]*dataplane.Frozen{
		"r1": edited(views["r1"], nil, fib.Entry{Prefix: pn.P, NextHop: addr("2.2.2.2")}),
		"r2": edited(views["r2"], nil, fib.Entry{Prefix: pn.P, NextHop: addr("1.1.1.1")}),
	}); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Verify(verify.NewChecker(nil, nil), []verify.Policy{
		{Kind: verify.NoLoop, Prefix: pn.P, Sources: []string{"r3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Report.Violations) != 1 {
		t.Fatalf("violations = %v", stats.Report.Violations)
	}
	if stats.Report.Violations[0].Walk.Outcome != dataplane.Looped {
		t.Fatalf("walk = %v", stats.Report.Violations[0].Walk)
	}
}

func TestGridScaleDistributed(t *testing.T) {
	n, err := network.BuildGridOSPF(1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	f := startFleet(t, n)
	// Every router must reach the far corner's loopback.
	stats, err := f.Verify(verify.NewChecker(nil, routerNames(n)), []verify.Policy{
		{Kind: verify.Reachable, Prefix: pfx("9.2.2.1/32")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Report.OK() {
		t.Fatalf("violations: %v", stats.Report.Violations)
	}
	if stats.Walks != 9 {
		t.Fatalf("walks = %d", stats.Walks)
	}
	central, err := CentralizedBytes(n.Live())
	if err != nil {
		t.Fatal(err)
	}
	if central <= 0 || stats.Bytes < 0 {
		t.Fatalf("byte accounting: central=%d dist=%d", central, stats.Bytes)
	}
}

// startFleet builds a fleet over n that closes with the test.
func startFleet(t *testing.T, n *network.Network) *Fleet {
	t.Helper()
	f, err := NewFleet(n.Live(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func routerNames(n *network.Network) []string {
	var out []string
	for _, r := range n.Routers() {
		out = append(out, r.Name)
	}
	return out
}

// viewsOf returns a copy of each router's live state, as a node holds it.
func viewsOf(n *network.Network) map[string]*dataplane.Frozen {
	snap := dataplane.Freeze(n.Live())
	out := map[string]*dataplane.Frozen{}
	for _, r := range snap.Routers() {
		out[r] = snap.Router(r)
	}
	return out
}

// ship syncs the fleet to made-up views: each router's delta is what
// turns its node's view into the target, with the target's interfaces
// when they differ. A view its node already holds ships nothing.
func ship(f *Fleet, views map[string]*dataplane.Frozen) error {
	routers := make([]string, 0, len(views))
	for r := range views {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	var deltas []viewDelta
	for _, r := range routers {
		v, nd := views[r], f.Node(r)
		d := viewDelta{Router: r}
		nd.viewMu.RLock()
		v.Walk(func(p netip.Prefix, e fib.Entry) bool {
			if old, ok := nd.View.Exact(p); !ok || !old.Equal(e) {
				d.Installs = append(d.Installs, e)
			}
			return true
		})
		nd.View.Walk(func(p netip.Prefix, _ fib.Entry) bool {
			if _, ok := v.Exact(p); !ok {
				d.Removes = append(d.Removes, p)
			}
			return true
		})
		if !slices.Equal(nd.View.Ifaces(), v.Ifaces()) {
			d.HasIface, d.Ifaces = true, v.Ifaces()
		}
		nd.viewMu.RUnlock()
		if len(d.Installs) > 0 || len(d.Removes) > 0 || d.HasIface {
			deltas = append(deltas, d)
		}
	}
	return f.sync(deltas)
}

// edited returns a copy of v whose FIB holds the entries keep accepts (all
// when keep is nil) plus extra.
func edited(v *dataplane.Frozen, keep func(netip.Prefix) bool, extra ...fib.Entry) *dataplane.Frozen {
	out := dataplane.NewFrozen(v.Loopback(), v.Ifaces(), nil)
	v.Walk(func(p netip.Prefix, e fib.Entry) bool {
		if keep == nil || keep(p) {
			out.Install(e)
		}
		return true
	})
	for _, e := range extra {
		out.Install(e)
	}
	return out
}

func TestVerifyUnknownSourceFails(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	if _, err := f.Verify(verify.NewChecker(nil, []string{"ghost"}), []verify.Policy{
		{Kind: verify.NoLoop, Prefix: pn.P},
	}); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	if _, err := readFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
