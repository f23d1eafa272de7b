package network

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/hbr"
	"hbverify/internal/route"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }

func startPaper(t *testing.T, opt PaperOpts) *PaperNet {
	t.Helper()
	pn, err := BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	return pn
}

// egress returns the next hop installed for P at router name.
func egress(t *testing.T, pn *PaperNet, name string) netip.Addr {
	t.Helper()
	e, ok := pn.Router(name).FIB.Exact(pn.P)
	if !ok {
		t.Fatalf("%s has no FIB entry for P", name)
	}
	return e.NextHop
}

func TestPaperFig1ConvergedState(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	// Policy: R2's uplink preferred (LP 30). R1 and R3 send via R2.
	if got := egress(t, pn, "r1"); got != addr("2.2.2.2") {
		t.Fatalf("r1 egress = %v, want r2 loopback", got)
	}
	if got := egress(t, pn, "r3"); got != addr("2.2.2.2") {
		t.Fatalf("r3 egress = %v", got)
	}
	if got := egress(t, pn, "r2"); got != addr("10.0.5.2") {
		t.Fatalf("r2 egress = %v, want e2 uplink", got)
	}
}

func TestPaperFig1aOnlyR1Uplink(t *testing.T) {
	opt := DefaultPaperOpts()
	opt.AdvertiseE2 = false
	pn := startPaper(t, opt)
	if got := egress(t, pn, "r3"); got != addr("1.1.1.1") {
		t.Fatalf("r3 egress = %v, want r1", got)
	}
	if got := egress(t, pn, "r1"); got != addr("10.0.4.2") {
		t.Fatalf("r1 egress = %v, want e1 uplink", got)
	}
}

func TestPaperFig1bTransition(t *testing.T) {
	opt := DefaultPaperOpts()
	opt.AdvertiseE2 = false
	pn := startPaper(t, opt)
	// Fig. 1b: the route via R2 becomes available.
	_, err := pn.UpdateConfig("e2", "originate P", func(c *config.Router) {
		c.BGP.Networks = []netip.Prefix{PrefixP}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if got := egress(t, pn, "r1"); got != addr("2.2.2.2") {
		t.Fatalf("r1 egress after E2 advert = %v", got)
	}
	if got := egress(t, pn, "r3"); got != addr("2.2.2.2") {
		t.Fatalf("r3 egress after E2 advert = %v", got)
	}
}

func TestPaperFig2Misconfiguration(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	// Fig. 2a: ill-considered change on R2: LP 10 < R1's 20.
	ccIO, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	// Policy violated: traffic now exits via R1.
	if got := egress(t, pn, "r3"); got != addr("1.1.1.1") {
		t.Fatalf("r3 egress = %v, want r1 (violation state)", got)
	}
	if got := egress(t, pn, "r2"); got != addr("1.1.1.1") {
		t.Fatalf("r2 egress = %v, want r1", got)
	}
	if got := egress(t, pn, "r1"); got != addr("10.0.4.2") {
		t.Fatalf("r1 egress = %v, want own uplink", got)
	}
	// The soft reconfig on r2 chains from the config change.
	var soft capture.IO
	for _, io := range pn.Log.ForRouter("r2") {
		if io.Type == capture.SoftReconfig {
			soft = io
		}
	}
	if soft.ID == 0 || len(soft.Causes) == 0 || soft.Causes[0] != ccIO.ID {
		t.Fatalf("soft reconfig = %+v, config change = %d", soft, ccIO.ID)
	}
}

func TestPaperFig2RollbackRepairs(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	_, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	// Repair: roll back to version 1 (initial).
	if _, err := pn.RollbackConfig("r2", 1); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if got := egress(t, pn, "r3"); got != addr("2.2.2.2") {
		t.Fatalf("after rollback r3 egress = %v, want r2", got)
	}
	if got := egress(t, pn, "r1"); got != addr("2.2.2.2") {
		t.Fatalf("after rollback r1 egress = %v, want r2", got)
	}
	// Store has three versions for r2: initial, bad, rollback.
	if h := pn.Store.History("r2"); len(h) != 3 {
		t.Fatalf("history = %d versions", len(h))
	}
}

func TestUplinkFailureWithdrawal(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	// R2's uplink fails: the network must fall back to R1.
	ios, err := pn.SetLinkUp("r2", "e2", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ios) != 2 || ios[0].Type != capture.LinkDown {
		t.Fatalf("link-down I/Os = %v", ios)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if got := egress(t, pn, "r3"); got != addr("1.1.1.1") {
		t.Fatalf("r3 egress after uplink failure = %v", got)
	}
	if got := egress(t, pn, "r2"); got != addr("1.1.1.1") {
		t.Fatalf("r2 egress after uplink failure = %v", got)
	}
	// Link restore converges back.
	if _, err := pn.SetLinkUp("r2", "e2", true); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if got := egress(t, pn, "r3"); got != addr("2.2.2.2") {
		t.Fatalf("r3 egress after restore = %v", got)
	}
}

func TestOSPFProvidesLoopbackRoutes(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	// r3 can reach r2's loopback via OSPF (needed to resolve iBGP next hop).
	e, ok := pn.Router("r3").FIB.Exact(pfx("2.2.2.2/32"))
	if !ok || e.Proto != route.ProtoOSPF {
		t.Fatalf("r3 route to r2 loopback = %+v %v", e, ok)
	}
}

func TestInternalLinkFailureReroutesIGP(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	if _, err := pn.SetLinkUp("r2", "r3", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	// r3 still reaches r2's loopback, now via r1 (metric 2).
	e, ok := pn.Router("r3").FIB.Exact(pfx("2.2.2.2/32"))
	if !ok || e.NextHop != addr("10.0.2.1") {
		t.Fatalf("r3->r2 after failure = %+v %v", e, ok)
	}
	// BGP best for P on r3 is unchanged (iBGP session survives via IGP).
	if got := egress(t, pn, "r3"); got != addr("2.2.2.2") {
		t.Fatalf("r3 egress = %v", got)
	}
}

func TestLiveShape(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	live := pn.Live()
	if n := len(live.Routers()); n != 5 {
		t.Fatalf("live routers = %d", n)
	}
	if _, ok := live.State("r3").Exact(PrefixP); !ok {
		t.Fatal("r3 live state missing P")
	}
}

func TestConnectedAndStaticRoutes(t *testing.T) {
	n := New(1)
	if _, err := n.AddRouter("a", "1.1.1.1", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRouter("b", "2.2.2.2", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Topo.AddLink(LinkSpecOf("a", "b", "10.0.0.0/30", addr("10.0.0.1"), addr("10.0.0.2"))); err != nil {
		t.Fatal(err)
	}
	if err := n.Configure("a", &config.Router{
		Statics: []config.StaticRoute{{Prefix: pfx("0.0.0.0/0"), NextHop: addr("10.0.0.2")}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Build(); err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	a := n.Router("a")
	if e, ok := a.FIB.Exact(pfx("10.0.0.0/30")); !ok || e.Proto != route.ProtoConnected {
		t.Fatalf("connected = %+v %v", e, ok)
	}
	if e, ok := a.FIB.Exact(pfx("0.0.0.0/0")); !ok || e.Proto != route.ProtoStatic {
		t.Fatalf("static = %+v %v", e, ok)
	}
}

func TestGridOSPFConverges(t *testing.T) {
	n, err := BuildGridOSPF(1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// Corner g0-0 reaches opposite corner's loopback in 4 hops.
	e, ok := n.Router("g0-0").FIB.Exact(pfx("9.2.2.1/32"))
	cost, _ := n.Router("g0-0").OSPF.Metric(netip.MustParseAddr("9.2.2.1"))
	if !ok || e.Proto != route.ProtoOSPF || cost != 4 {
		t.Fatalf("corner route = %+v %v, cost %d", e, ok, cost)
	}
}

func TestChainRIPConverges(t *testing.T) {
	n, lan, err := BuildChainRIP(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	e, ok := n.Router("c4").FIB.Exact(lan)
	if !ok || e.Proto != route.ProtoRIP {
		t.Fatalf("c4 lan route = %+v %v", e, ok)
	}
	// Five hops, counting the LAN's own router, as RIP's metric does.
	if w := dataplane.NewWalker(n.Topo, n.Live()).ForwardPrefix("c4", lan); w.Outcome != dataplane.Delivered || len(w.Path) != 5 {
		t.Fatalf("c4 to the lan: %v", w)
	}
}

func TestClockSkewAffectsObservedTimestamps(t *testing.T) {
	opt := DefaultPaperOpts()
	opt.ClockSkew = 5 * time.Second
	opt.ClockJitter = time.Millisecond
	pn := startPaper(t, opt)
	for _, io := range pn.Log.ForRouter("r2") {
		if io.Time < io.TrueTime {
			t.Fatalf("skewed clock ran backwards: %+v", io)
		}
	}
	// External routers have perfect clocks.
	for _, io := range pn.Log.ForRouter("e1") {
		if io.Time != io.TrueTime {
			t.Fatalf("e1 should have a perfect clock: %+v", io)
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []string {
		pn, err := BuildPaper(seed, DefaultPaperOpts())
		if err != nil {
			t.Fatal(err)
		}
		pn.Start()
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, io := range pn.Log.Snapshot() {
			out = append(out, io.String())
		}
		return out
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("different I/O counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestVendorQuirkNetworkLevel(t *testing.T) {
	opt := DefaultPaperOpts()
	opt.Quirks = map[string]route.Quirks{"r3": route.VendorA}
	pn := startPaper(t, opt)
	// Network still converges; quirk only matters on MED ties, absent here.
	if got := egress(t, pn, "r3"); got != addr("2.2.2.2") {
		t.Fatalf("r3 egress = %v", got)
	}
}

func TestStaticRouteLiveUpdate(t *testing.T) {
	n := New(1)
	if _, err := n.AddRouter("a", "1.1.1.1", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRouter("b", "2.2.2.2", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Topo.AddLink(LinkSpecOf("a", "b", "10.0.0.0/30", addr("10.0.0.1"), addr("10.0.0.2"))); err != nil {
		t.Fatal(err)
	}
	if err := n.Configure("a", &config.Router{
		Statics: []config.StaticRoute{{Prefix: pfx("0.0.0.0/0"), NextHop: addr("10.0.0.2")}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Build(); err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	a := n.Router("a")
	if _, ok := a.FIB.Exact(pfx("0.0.0.0/0")); !ok {
		t.Fatal("initial static missing")
	}
	// Replace the default with a more specific static at runtime.
	if _, err := n.UpdateConfig("a", "swap statics", func(c *config.Router) {
		c.Statics = []config.StaticRoute{{Prefix: pfx("172.16.0.0/12"), NextHop: addr("10.0.0.2")}}
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.FIB.Exact(pfx("0.0.0.0/0")); ok {
		t.Fatal("removed static survived")
	}
	e, ok := a.FIB.Exact(pfx("172.16.0.0/12"))
	if !ok || e.Proto != route.ProtoStatic {
		t.Fatalf("new static = %+v %v", e, ok)
	}
	// The FIB changes chain from the config-change input.
	var fibIO capture.IO
	for _, io := range n.Log.ForRouter("a") {
		if io.Type == capture.FIBInstall && io.Prefix == pfx("172.16.0.0/12") {
			fibIO = io
		}
	}
	if fibIO.ID == 0 || len(fibIO.Causes) == 0 {
		t.Fatalf("static FIB install uncaused: %+v", fibIO)
	}
	cause := n.Log.Filter(func(io capture.IO) bool { return io.ID == fibIO.Causes[0] })
	if len(cause) != 1 || cause[0].Type != capture.ConfigChange {
		t.Fatalf("cause = %v", cause)
	}
}

func TestStarRouteReflection(t *testing.T) {
	n, err := BuildStarRR(1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// Every client learned P through the reflector with c0's next hop.
	for i := 1; i < 4; i++ {
		name := "c" + string(rune('0'+i))
		e, ok := n.Router(name).FIB.Exact(PrefixP)
		if !ok {
			t.Fatalf("%s has no route for P (reflection failed)", name)
		}
		if e.NextHop != addr("10.255.1.1") {
			t.Fatalf("%s next hop = %v, want c0's loopback", name, e.NextHop)
		}
	}
	// The data plane delivers end-to-end (c3 -> rr -> c0 -> ext).
	w := dataplane.NewWalker(n.Topo, n.Live())
	walk := w.ForwardPrefix("c3", PrefixP)
	if walk.Outcome != dataplane.Delivered || walk.Egress != "ext" {
		t.Fatalf("walk = %v", walk)
	}
}

func TestStarRRRootCauseThroughReflector(t *testing.T) {
	// The happens-before machinery must trace through the extra reflection
	// hop: c3's FIB install chains back to ext's origination.
	n, err := BuildStarRR(1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	mark := n.Log.Len()
	cc, err := n.UpdateConfig("ext", "originate P", func(c *config.Router) {
		c.BGP.Networks = []netip.Prefix{PrefixP}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	ios := n.Log.Snapshot()[mark:]
	g := hbr.Rules{}.Infer(capture.StripOracle(ios))
	var c3fib capture.IO
	for _, io := range ios {
		if io.Router == "c3" && io.Type == capture.FIBInstall && io.Prefix == PrefixP {
			c3fib = io
		}
	}
	if c3fib.ID == 0 {
		t.Fatal("c3 never installed P")
	}
	roots := g.RootCauses(c3fib.ID)
	found := false
	for _, r := range roots {
		if r.ID == cc.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("roots %v do not include ext's config change %d", roots, cc.ID)
	}
	// The provenance crosses rr (the reflection hop).
	viaRR := false
	for _, io := range g.Provenance(c3fib.ID) {
		if io.Router == "rr" {
			viaRR = true
		}
	}
	if !viaRR {
		t.Fatal("provenance skipped the reflector")
	}
}

// BuildChainRIP constructs a RIP chain of length k (routers "c0".."c<k-1>")
// with a LAN stub on c0, used in protocol-mix experiments.
func BuildChainRIP(seed int64, k int) (*Network, netip.Prefix, error) {
	n := New(seed)
	lan := netip.MustParsePrefix("172.16.0.0/24")
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("c%d", i)
		if _, err := n.AddRouter(name, fmt.Sprintf("8.8.%d.1", i), 0, 0); err != nil {
			return nil, lan, err
		}
		if err := n.Configure(name, &config.Router{RIP: config.RIPConfig{Enabled: true}}); err != nil {
			return nil, lan, err
		}
	}
	for i := 0; i+1 < k; i++ {
		subnet := fmt.Sprintf("10.9.%d.0/30", i)
		p := netip.MustParsePrefix(subnet)
		a4 := p.Addr().As4()
		aAddr := netip.AddrFrom4([4]byte{a4[0], a4[1], a4[2], a4[3] + 1})
		bAddr := netip.AddrFrom4([4]byte{a4[0], a4[1], a4[2], a4[3] + 2})
		if _, err := n.Topo.AddLink(LinkSpecOf(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1), subnet, aAddr, bAddr)); err != nil {
			return nil, lan, err
		}
	}
	if _, err := n.Topo.AddStub("c0", "lan0", netip.MustParseAddr("172.16.0.1"), lan); err != nil {
		return nil, lan, err
	}
	if err := n.Build(); err != nil {
		return nil, lan, err
	}
	return n, lan, nil
}

// BuildStarRR constructs a route-reflection topology: a central reflector
// "rr" with k client routers "c0".."c<k-1>" (star links, OSPF underlay, no
// client-client iBGP sessions), plus an external provider "ext" (AS 100)
// attached to c0 that can originate P. It exercises RFC 4456 reflection in
// place of the full mesh the paper's example assumes.
func BuildStarRR(seed int64, k int, advertise bool) (*Network, error) {
	n := New(seed)
	if _, err := n.AddRouter("rr", "10.255.0.1", 0, 0); err != nil {
		return nil, err
	}
	clientLB := func(i int) string { return fmt.Sprintf("10.255.1.%d", i+1) }
	for i := 0; i < k; i++ {
		if _, err := n.AddRouter(fmt.Sprintf("c%d", i), clientLB(i), 0, 0); err != nil {
			return nil, err
		}
	}
	if _, err := n.AddRouter("ext", "100.0.0.1", 0, 0); err != nil {
		return nil, err
	}
	addLink := func(a, b string, idx int) error {
		subnet := fmt.Sprintf("10.8.%d.0/30", idx)
		p := netip.MustParsePrefix(subnet)
		a4 := p.Addr().As4()
		aa := netip.AddrFrom4([4]byte{a4[0], a4[1], a4[2], a4[3] + 1})
		ba := netip.AddrFrom4([4]byte{a4[0], a4[1], a4[2], a4[3] + 2})
		_, err := n.Topo.AddLink(LinkSpecOf(a, b, subnet, aa, ba))
		return err
	}
	for i := 0; i < k; i++ {
		if err := addLink("rr", fmt.Sprintf("c%d", i), i); err != nil {
			return nil, err
		}
	}
	if err := addLink("c0", "ext", k); err != nil {
		return nil, err
	}
	if _, err := n.Topo.AddStub("ext", "lanP", netip.MustParseAddr("203.0.113.1"), PrefixP); err != nil {
		return nil, err
	}

	rrNeighbors := make([]config.Neighbor, 0, k)
	for i := 0; i < k; i++ {
		rrNeighbors = append(rrNeighbors, config.Neighbor{
			Addr: netip.MustParseAddr(clientLB(i)), RemoteAS: 65000, RRClient: true,
		})
	}
	if err := n.Configure("rr", &config.Router{
		BGP:  &config.BGPConfig{ASN: 65000, RouterID: netip.MustParseAddr("10.255.0.1"), Neighbors: rrNeighbors},
		OSPF: config.OSPFConfig{Enabled: true},
	}); err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("c%d", i)
		cfg := &config.Router{
			BGP: &config.BGPConfig{
				ASN: 65000, RouterID: netip.MustParseAddr(clientLB(i)),
				Neighbors: []config.Neighbor{{Addr: netip.MustParseAddr("10.255.0.1"), RemoteAS: 65000}},
			},
			OSPF: config.OSPFConfig{Enabled: true},
		}
		if i == 0 {
			// c0's uplink interface stays out of OSPF.
			cfg.OSPF.Interfaces = []string{"eth-rr"}
			cfg.BGP.Neighbors = append(cfg.BGP.Neighbors, config.Neighbor{
				Addr: netip.MustParseAddr(fmt.Sprintf("10.8.%d.2", k)), RemoteAS: 100, LocalPref: 150,
			})
		}
		if err := n.Configure(name, cfg); err != nil {
			return nil, err
		}
	}
	extCfg := &config.Router{
		BGP: &config.BGPConfig{
			ASN: 100, RouterID: netip.MustParseAddr("100.0.0.1"),
			Neighbors: []config.Neighbor{{Addr: netip.MustParseAddr(fmt.Sprintf("10.8.%d.1", k)), RemoteAS: 65000}},
		},
	}
	if advertise {
		extCfg.BGP.Networks = []netip.Prefix{PrefixP}
	}
	if err := n.Configure("ext", extCfg); err != nil {
		return nil, err
	}
	if err := n.Build(); err != nil {
		return nil, err
	}
	return n, nil
}
