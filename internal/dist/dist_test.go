package dist

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/network"
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
	coord, nodes, teardown, err := BuildFleet(pn.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	stats, err := coord.Verify(nodes, []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
	}, []string{"r1", "r2", "r3"})
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
	coord, nodes, teardown, err := BuildFleet(pn.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	stats, err := coord.Verify(nodes, []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
	}, []string{"r1", "r2", "r3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Report.Violations) != 3 {
		t.Fatalf("violations = %v", stats.Report.Violations)
	}
}

func TestDistributedLoopDetection(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	// Corrupt two views into a loop before starting nodes.
	views := map[string]LocalView{}
	for _, r := range pn.Routers() {
		views[r.Name] = LocalViewOf(r)
	}
	v1 := views["r1"]
	v1.FIB[pn.P] = fib.Entry{Prefix: pn.P, NextHop: addr("2.2.2.2")}
	v2 := views["r2"]
	v2.FIB[pn.P] = fib.Entry{Prefix: pn.P, NextHop: addr("1.1.1.1")}

	coord, err := StartCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	nodes := map[string]*Node{}
	directory := func(r string) (string, bool) {
		nd, ok := nodes[r]
		if !ok {
			return "", false
		}
		return nd.Addr(), true
	}
	for name, v := range views {
		nd, err := StartNode(v, directory, coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		nodes[name] = nd
	}
	stats, err := coord.Verify(nodes, []verify.Policy{
		{Kind: verify.NoLoop, Prefix: pn.P, Sources: []string{"r3"}},
	}, nil)
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
	coord, nodes, teardown, err := BuildFleet(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	// Every router must reach the far corner's loopback.
	stats, err := coord.Verify(nodes, []verify.Policy{
		{Kind: verify.Reachable, Prefix: pfx("9.2.2.1/32")},
	}, routerNames(n))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Report.OK() {
		t.Fatalf("violations: %v", stats.Report.Violations)
	}
	if stats.Walks != 9 {
		t.Fatalf("walks = %d", stats.Walks)
	}
	central, err := CentralizedBytes(viewsOf(n))
	if err != nil {
		t.Fatal(err)
	}
	if central <= 0 || stats.Bytes < 0 {
		t.Fatalf("byte accounting: central=%d dist=%d", central, stats.Bytes)
	}
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

func TestVerifyUnknownSourceFails(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	coord, nodes, teardown, err := BuildFleet(pn.Network, func(r string) bool { return r == "r1" })
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	if _, err := coord.Verify(nodes, []verify.Policy{
		{Kind: verify.NoLoop, Prefix: pn.P},
	}, []string{"ghost"}); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	if _, err := readFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
