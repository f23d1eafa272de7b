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
	"hbverify/internal/trie"
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

// TestLocalViewExpandMatchesCentralWalker pins the two adaptors of the
// shared forwarding step against each other on a live network: a node's
// view of itself and the central walker's view of that router expand every
// probe address identically.
func TestLocalViewExpandMatchesCentralWalker(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	tables := map[string]*fib.Table{}
	for _, r := range pn.Routers() {
		tables[r.Name] = r.FIB
	}
	central := dataplane.NewWalker(pn.Topo, dataplane.TableView(tables))
	probes := []netip.Addr{dataplane.Representative(pn.P), addr("203.0.113.9")}
	for _, r := range pn.Routers() {
		probes = append(probes, r.Topo.Loopback)
		for _, i := range r.Topo.Interfaces() {
			probes = append(probes, i.Addr)
		}
	}
	for _, r := range pn.Routers() {
		v := LocalViewOf(r)
		for _, dst := range probes {
			if got, want := v.Expand(dst), central.Expand(r.Name, dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s -> %s: local view %+v, central %+v", r.Name, dst, got, want)
			}
		}
	}
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
	if err := ship(f, map[string]LocalView{
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
	central, err := CentralizedBytes(n)
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
	f, err := NewFleet(n, nil)
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

func viewsOf(n *network.Network) map[string]LocalView {
	out := map[string]LocalView{}
	for _, r := range n.Routers() {
		out[r.Name] = LocalViewOf(r)
	}
	return out
}

// ship syncs the fleet to made-up views: each router's delta is what
// turns its node's view into the target (fib.Diff), with the target's
// interfaces when they differ. A view its node already holds ships nothing.
func ship(f *Fleet, views map[string]LocalView) error {
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
		d.Installs, d.Removes = fib.Diff(nd.View.FIB, v.FIB)
		if !slices.Equal(nd.View.Ifaces, v.Ifaces) {
			d.HasIface, d.Ifaces = true, v.Ifaces
		}
		nd.viewMu.RUnlock()
		if len(d.Installs) > 0 || len(d.Removes) > 0 || d.HasIface {
			deltas = append(deltas, d)
		}
	}
	return f.sync(deltas)
}

// edited returns v with a copy of its FIB that holds the entries keep
// accepts (all when keep is nil) plus extra.
func edited(v LocalView, keep func(netip.Prefix) bool, extra ...fib.Entry) LocalView {
	out := v
	out.FIB = trie.New[fib.Entry]()
	v.FIB.Walk(func(p netip.Prefix, e fib.Entry) bool {
		if keep == nil || keep(p) {
			_ = out.FIB.Insert(p, e)
		}
		return true
	})
	for _, e := range extra {
		_ = out.FIB.Insert(e.Prefix, e)
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
