package network

import (
	"fmt"
	"net/netip"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/eqclass"
	"hbverify/internal/fib"
)

// manyPrefixPaper builds the paper topology with both providers
// originating n prefixes each (disjoint ranges).
func manyPrefixPaper(t *testing.T, n int) (*PaperNet, []netip.Prefix, []netip.Prefix) {
	t.Helper()
	opt := DefaultPaperOpts()
	opt.AdvertiseE1, opt.AdvertiseE2 = false, false
	pn, err := BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	var fromE1, fromE2 []netip.Prefix
	for i := 0; i < n; i++ {
		fromE1 = append(fromE1, netip.PrefixFrom(netip.AddrFrom4([4]byte{41, byte(i >> 8), byte(i), 0}), 24))
		fromE2 = append(fromE2, netip.PrefixFrom(netip.AddrFrom4([4]byte{42, byte(i >> 8), byte(i), 0}), 24))
	}
	pn.Router("e1").Cfg.BGP.Networks = fromE1
	pn.Router("e2").Cfg.BGP.Networks = fromE2
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	return pn, fromE1, fromE2
}

func TestHundredPrefixConvergence(t *testing.T) {
	pn, fromE1, fromE2 := manyPrefixPaper(t, 100)
	// Every prefix from either group is installed everywhere with the
	// right exit: e1-group exits r1, e2-group exits r2.
	for _, p := range fromE1 {
		e, ok := pn.Router("r3").FIB.Exact(p)
		if !ok || e.NextHop != netip.MustParseAddr("1.1.1.1") {
			t.Fatalf("r3 route for %v = %+v %v", p, e, ok)
		}
	}
	for _, p := range fromE2 {
		e, ok := pn.Router("r3").FIB.Exact(p)
		if !ok || e.NextHop != netip.MustParseAddr("2.2.2.2") {
			t.Fatalf("r3 route for %v = %+v %v", p, e, ok)
		}
	}
	// 200 prefixes, 2 forwarding behaviours: the §6 structure emerges
	// from the real control plane, not just the synthetic generator.
	all := append(append([]netip.Prefix(nil), fromE1...), fromE2...)
	classes := eqclass.Compute(pn.Live(), all)
	if len(classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(classes))
	}
	// Capture volume scales linearly-ish with prefixes; ensure nothing
	// exploded (each prefix triggers a bounded event chain).
	perPrefix := float64(pn.Log.Len()) / 200
	if perPrefix > 40 {
		t.Fatalf("capture blow-up: %.1f I/Os per prefix", perPrefix)
	}
}

func TestHundredPrefixWithdrawalStorm(t *testing.T) {
	pn, _, fromE2 := manyPrefixPaper(t, 100)
	// E2's uplink dies: every e2-group prefix must be withdrawn
	// everywhere (no fallback exists for those ranges).
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range fromE2 {
		for _, r := range []string{"r1", "r2", "r3"} {
			if _, ok := pn.Router(r).FIB.Exact(p); ok {
				t.Fatalf("%s kept dead route %v", r, p)
			}
		}
	}
	// Withdraw events were captured for tracing.
	withdrawRecv := pn.Log.Filter(func(io capture.IO) bool {
		return io.Type == capture.RecvWithdraw
	})
	if len(withdrawRecv) == 0 {
		t.Fatal("no withdraw receives captured")
	}
}

func TestLargerGridConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("large grid")
	}
	n, err := BuildGridOSPF(1, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// All 36 routers know all 36 loopbacks.
	for _, r := range n.Routers() {
		count := 0
		r.FIB.Walk(func(p netip.Prefix, _ fib.Entry) bool {
			if p.Bits() == 32 {
				count++
			}
			return true
		})
		if count != 35 {
			t.Fatalf("%s has %d loopback routes, want 35", r.Name, count)
		}
	}
	// Far-corner metric equals the Manhattan distance.
	cost, ok := n.Router("g0-0").OSPF.Metric(netip.MustParseAddr("9.5.5.1"))
	if !ok || cost != 10 {
		t.Fatalf("corner metric = %d %v", cost, ok)
	}
}

func TestCaptureVolumeReporting(t *testing.T) {
	pn, _, _ := manyPrefixPaper(t, 10)
	byType := map[capture.Type]int{}
	for _, io := range pn.Log.Snapshot() {
		byType[io.Type]++
	}
	for _, ty := range []capture.Type{capture.RecvAdvert, capture.SendAdvert, capture.RIBInstall, capture.FIBInstall} {
		if byType[ty] == 0 {
			t.Fatalf("no %v events captured: %v", ty, byType)
		}
	}
	_ = fmt.Sprintf("%v", byType)
}
