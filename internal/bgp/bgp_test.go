package bgp

import (
	"net/netip"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// testNet couples speakers directly through the scheduler. Each speaker is
// addressed by its loopback; all sessions run loopback-to-loopback.
type testNet struct {
	sched    *netsim.Scheduler
	log      *capture.Log
	speakers map[netip.Addr]*Speaker
	fibs     map[string]*fib.Table
	delay    time.Duration
	igp      map[netip.Addr]uint32
}

func newTestNet() *testNet {
	return &testNet{
		sched:    netsim.NewScheduler(1),
		log:      capture.NewLog(),
		speakers: map[netip.Addr]*Speaker{},
		fibs:     map[string]*fib.Table{},
		delay:    2 * time.Millisecond,
		igp:      map[netip.Addr]uint32{},
	}
}

func (n *testNet) DeliverBGP(local, peer netip.Addr, msg Message, sendIO uint64) {
	n.sched.After(n.delay, func() {
		if sp := n.speakers[peer]; sp != nil {
			sp.HandleUpdate(local, msg, sendIO)
		}
	})
}

func (n *testNet) IGPMetric(nh netip.Addr) (uint32, bool) {
	m, ok := n.igp[nh]
	return m, ok
}

func (n *testNet) addSpeaker(name, loopback string, asn uint32, cfg *config.BGPConfig) *Speaker {
	lb := addr(loopback)
	if cfg == nil {
		cfg = &config.BGPConfig{ASN: asn, RouterID: lb}
	}
	rec := capture.NewRecorder(n.log, name, n.sched, nil)
	ft := fib.NewTable(rec)
	sp := New(name, lb, cfg, nil, rec, n.sched, ft, n, DefaultTiming())
	n.speakers[lb] = sp
	n.fibs[name] = ft
	n.igp[lb] = 1
	return sp
}

func (n *testNet) connect(a, b *Speaker, typ route.PeerType, mod func(sa, sb *Session)) {
	sa := a.AddSession(Session{PeerName: b.Name(), PeerAddr: b.loopback, LocalAddr: a.loopback, PeerAS: b.cfg.ASN, Type: typ})
	sb := b.AddSession(Session{PeerName: a.Name(), PeerAddr: a.loopback, LocalAddr: b.loopback, PeerAS: a.cfg.ASN, Type: typ})
	if mod != nil {
		mod(sa, sb)
	}
	a.PeerUp(b.loopback)
	b.PeerUp(a.loopback)
}

func (n *testNet) run(t *testing.T) {
	t.Helper()
	n.sched.MaxEvents = 100000
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
}

// paperNet builds the paper's Fig. 1 network: R1, R2, R3 in AS 65000 (iBGP
// full mesh), external providers E1 (AS 100) peering with R1 and E2 (AS
// 200) peering with R2, both able to originate P = 203.0.113.0/24. R1 sets
// local-pref 20 on its uplink, R2 sets lpR2 (30 in the figure).
func paperNet(lpR2 uint32) (*testNet, map[string]*Speaker) {
	n := newTestNet()
	r1 := n.addSpeaker("r1", "1.1.1.1", 65000, nil)
	r2 := n.addSpeaker("r2", "2.2.2.2", 65000, nil)
	r3 := n.addSpeaker("r3", "3.3.3.3", 65000, nil)
	e1 := n.addSpeaker("e1", "100.0.0.1", 100, &config.BGPConfig{
		ASN: 100, RouterID: addr("100.0.0.1"), Networks: []netip.Prefix{pfx("203.0.113.0/24")},
	})
	e2 := n.addSpeaker("e2", "200.0.0.1", 200, &config.BGPConfig{
		ASN: 200, RouterID: addr("200.0.0.1"), Networks: []netip.Prefix{pfx("203.0.113.0/24")},
	})
	n.connect(r1, r2, route.PeerIBGP, nil)
	n.connect(r1, r3, route.PeerIBGP, nil)
	n.connect(r2, r3, route.PeerIBGP, nil)
	n.connect(r1, e1, route.PeerEBGP, func(sa, _ *Session) { sa.LocalPref = 20 })
	n.connect(r2, e2, route.PeerEBGP, func(sa, _ *Session) { sa.LocalPref = lpR2 })
	return n, map[string]*Speaker{"r1": r1, "r2": r2, "r3": r3, "e1": e1, "e2": e2}
}

var prefixP = pfx("203.0.113.0/24")

func TestFig1OnlyR1UplinkAvailable(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start() // only E1 advertises P (Fig. 1a)
	n.run(t)
	for _, r := range []string{"r1", "r2", "r3"} {
		best, ok := sp[r].locRIB[prefixP]
		if !ok {
			t.Fatalf("%s has no route for P", r)
		}
		want := addr("1.1.1.1") // via R1
		if r == "r1" {
			want = addr("100.0.0.1") // R1 exits via its eBGP uplink
		}
		if best.NextHop != want {
			t.Fatalf("%s next hop = %v, want %v", r, best.NextHop, want)
		}
		if best.Attrs.EffectiveLocalPref() != 20 {
			t.Fatalf("%s LP = %d, want 20", r, best.Attrs.EffectiveLocalPref())
		}
	}
}

func TestFig1bRouteViaR2Preferred(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	n.run(t)
	sp["e2"].Start() // Fig. 1b: R2's uplink route becomes available
	n.run(t)
	wants := map[string]netip.Addr{
		"r1": addr("2.2.2.2"),   // R1 switches to R2 (LP 30 beats its own 20)
		"r2": addr("200.0.0.1"), // R2 exits via its uplink
		"r3": addr("2.2.2.2"),
	}
	for r, want := range wants {
		best, ok := sp[r].locRIB[prefixP]
		if !ok || best.NextHop != want {
			t.Fatalf("%s best = %+v (ok=%v), want nh %v", r, best, ok, want)
		}
	}
	// FIBs agree with RIBs.
	if e, ok := n.fibs["r3"].Exact(prefixP); !ok || e.NextHop != addr("2.2.2.2") {
		t.Fatalf("r3 FIB = %+v %v", e, ok)
	}
}

func TestFig2LocalPrefDemotionViaSoftReconfig(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	sp["e2"].Start()
	n.run(t)
	// Fig. 2a: operator sets R2's uplink LP to 10 (below R1's 20).
	sp["r2"].Session(addr("200.0.0.1")).LocalPref = 10
	sp["r2"].SoftReconfig()
	n.run(t)
	wants := map[string]netip.Addr{
		"r1": addr("100.0.0.1"), // R1 switches to its own uplink
		"r2": addr("1.1.1.1"),   // R2 now prefers R1's route
		"r3": addr("1.1.1.1"),
	}
	for r, want := range wants {
		best := sp[r].locRIB[prefixP]
		if best.NextHop != want {
			t.Fatalf("%s nh = %v, want %v", r, best.NextHop, want)
		}
	}
}

func TestWithdrawFallsBack(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	sp["e2"].Start()
	n.run(t)
	// E2 withdraws P (uplink failure at the provider).
	e2 := sp["e2"]
	e2.cfg.Networks = nil
	e2.SoftReconfig()
	n.run(t)
	for _, r := range []string{"r2", "r3"} {
		best, ok := sp[r].locRIB[prefixP]
		if !ok || best.NextHop != addr("1.1.1.1") {
			t.Fatalf("%s should fall back to R1: %+v ok=%v", r, best, ok)
		}
	}
}

func TestPeerDownPurgesAndWithdraws(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	sp["e2"].Start()
	n.run(t)
	sp["r2"].PeerDown(addr("200.0.0.1"))
	n.run(t)
	for _, r := range []string{"r1", "r2", "r3"} {
		best, ok := sp[r].locRIB[prefixP]
		if !ok {
			t.Fatalf("%s lost P entirely", r)
		}
		wantVia := addr("1.1.1.1")
		if r == "r1" {
			wantVia = addr("100.0.0.1")
		}
		if best.NextHop != wantVia {
			t.Fatalf("%s nh = %v want %v", r, best.NextHop, wantVia)
		}
	}
	if routes := sp["r2"].AdjIn(addr("200.0.0.1")); len(routes) != 0 {
		t.Fatalf("adj-in not purged: %v", routes)
	}
}

func TestPeerUpReadvertises(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	n.run(t)
	sp["r3"].PeerDown(addr("1.1.1.1"))
	sp["r1"].PeerDown(addr("3.3.3.3"))
	n.run(t)
	// R3 still has the route via R2? No: R2 does not reflect iBGP routes.
	if _, ok := sp["r3"].locRIB[prefixP]; ok {
		t.Fatal("r3 should have lost P (no reflection, session to r1 down)")
	}
	sp["r1"].PeerUp(addr("3.3.3.3"))
	sp["r3"].PeerUp(addr("1.1.1.1"))
	n.run(t)
	if best, ok := sp["r3"].locRIB[prefixP]; !ok || best.NextHop != addr("1.1.1.1") {
		t.Fatalf("r3 after session restore: %+v %v", best, ok)
	}
}

func TestEBGPExportPrependsASAndClearsLP(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	n.run(t)
	// E2 hears P from R2 over eBGP: path must be [65000 100], LP zero.
	routes := sp["e2"].AdjIn(addr("2.2.2.2"))
	if len(routes) != 1 {
		t.Fatalf("e2 adj-in = %v", routes)
	}
	m := routes[0]
	if len(m.Attrs.ASPath) != 2 || m.Attrs.ASPath[0] != 65000 || m.Attrs.ASPath[1] != 100 {
		t.Fatalf("path = %v", m.Attrs.ASPath)
	}
	if m.Attrs.LocalPref != 0 {
		t.Fatalf("LP leaked over eBGP: %d", m.Attrs.LocalPref)
	}
	if m.NextHop != addr("2.2.2.2") {
		t.Fatalf("eBGP next hop = %v", m.NextHop)
	}
}

func TestIBGPCarriesLocalPrefAndNextHopSelf(t *testing.T) {
	n, sp := paperNet(30)
	sp["e2"].Start()
	n.run(t)
	routes := sp["r3"].AdjIn(addr("2.2.2.2"))
	if len(routes) != 1 {
		t.Fatalf("r3 adj-in from r2 = %v", routes)
	}
	m := routes[0]
	if m.Attrs.LocalPref != 30 {
		t.Fatalf("iBGP LP = %d, want 30", m.Attrs.LocalPref)
	}
	if m.NextHop != addr("2.2.2.2") {
		t.Fatalf("iBGP next hop = %v, want next-hop-self", m.NextHop)
	}
	if len(m.Attrs.ASPath) != 1 || m.Attrs.ASPath[0] != 200 {
		t.Fatalf("iBGP path = %v", m.Attrs.ASPath)
	}
}

func TestNoIBGPReflection(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	n.run(t)
	// R3 learned P from R1 over iBGP; it must not re-advertise to R2.
	if routes := sp["r2"].AdjIn(addr("3.3.3.3")); len(routes) != 0 {
		t.Fatalf("r2 heard reflected route from r3: %v", routes)
	}
}

func TestSplitHorizonTowardOriginPeer(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	n.run(t)
	// R1's best is from E1; R1 must not advertise P back to E1.
	if routes := sp["e1"].AdjIn(addr("1.1.1.1")); len(routes) != 0 {
		t.Fatalf("split horizon violated: %v", routes)
	}
}

func TestASPathLoopDiscarded(t *testing.T) {
	n := newTestNet()
	a := n.addSpeaker("a", "1.1.1.1", 65000, nil)
	b := n.addSpeaker("b", "9.9.9.9", 900, nil)
	n.connect(a, b, route.PeerEBGP, nil)
	n.run(t)
	// Deliver a route whose path already contains 65000.
	n.sched.At(n.sched.Now()+1, func() {
		a.HandleUpdate(addr("9.9.9.9"), Message{
			Prefix: prefixP, NextHop: addr("9.9.9.9"),
			Attrs: route.BGPAttrs{ASPath: []uint32{900, 65000}},
		}, 0)
	})
	n.run(t)
	if _, ok := a.locRIB[prefixP]; ok {
		t.Fatal("looped route installed")
	}
	// The recv I/O is still captured (§4: all inputs are recorded).
	recvs := n.log.Filter(func(io capture.IO) bool { return io.Type == capture.RecvAdvert && io.Router == "a" })
	if len(recvs) != 1 {
		t.Fatalf("recv I/O missing: %d", len(recvs))
	}
}

func TestImportPolicyDeny(t *testing.T) {
	n := newTestNet()
	pol := map[string]*config.Policy{
		"block-p": {Name: "block-p", Terms: []config.PolicyTerm{
			{Match: config.MatchPrefix, Prefix: prefixP, Action: config.ActionDeny},
		}},
	}
	cfg := &config.BGPConfig{ASN: 65000, RouterID: addr("1.1.1.1")}
	rec := capture.NewRecorder(n.log, "a", n.sched, nil)
	ft := fib.NewTable(rec)
	a := New("a", addr("1.1.1.1"), cfg, func(name string) *config.Policy { return pol[name] },
		rec, n.sched, ft, n, DefaultTiming())
	n.speakers[addr("1.1.1.1")] = a
	b := n.addSpeaker("b", "9.9.9.9", 900, &config.BGPConfig{
		ASN: 900, RouterID: addr("9.9.9.9"),
		Networks: []netip.Prefix{prefixP, pfx("198.51.100.0/24")},
	})
	n.connect(a, b, route.PeerEBGP, func(sa, _ *Session) { sa.ImportPolicy = "block-p" })
	b.Start()
	n.run(t)
	if _, ok := a.locRIB[prefixP]; ok {
		t.Fatal("denied prefix installed")
	}
	if _, ok := a.locRIB[pfx("198.51.100.0/24")]; !ok {
		t.Fatal("permitted prefix missing")
	}
}

func TestOrderingRIBThenFIBThenSend(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	n.run(t)
	ios := n.log.ForRouter("r1")
	idx := map[capture.Type]int{}
	for i, io := range ios {
		if io.Prefix == prefixP {
			if _, seen := idx[io.Type]; !seen {
				idx[io.Type] = i
			}
		}
	}
	recvI, okR := idx[capture.RecvAdvert]
	ribI, okRib := idx[capture.RIBInstall]
	fibI, okFib := idx[capture.FIBInstall]
	sendI, okSend := idx[capture.SendAdvert]
	if !okR || !okRib || !okFib || !okSend {
		t.Fatalf("missing I/O kinds: %v", idx)
	}
	if !(recvI < ribI && ribI < fibI && fibI < sendI) {
		t.Fatalf("ordering violated: recv=%d rib=%d fib=%d send=%d", recvI, ribI, fibI, sendI)
	}
}

func TestGroundTruthCausalChain(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	n.run(t)
	// Find r3's FIB install for P and walk causes back to e1's origination.
	var fibIO capture.IO
	for _, io := range n.log.ForRouter("r3") {
		if io.Type == capture.FIBInstall && io.Prefix == prefixP {
			fibIO = io
		}
	}
	if fibIO.ID == 0 {
		t.Fatal("r3 never installed P")
	}
	seen := map[uint64]bool{}
	frontier := []uint64{fibIO.ID}
	reachedE1 := false
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		found := n.log.Filter(func(io capture.IO) bool { return io.ID == id })
		if len(found) != 1 {
			t.Fatalf("dangling cause %d", id)
		}
		io := found[0]
		if io.Router == "e1" {
			reachedE1 = true
		}
		frontier = append(frontier, io.Causes...)
	}
	if !reachedE1 {
		t.Fatal("causal chain does not reach the originating router")
	}
}

func TestSoftReconfigEventChainsFromCause(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	sp["e2"].Start()
	n.run(t)
	sp["r2"].Session(addr("200.0.0.1")).LocalPref = 10
	sp["r2"].SoftReconfig(4242)
	n.run(t)
	var soft capture.IO
	for _, io := range n.log.ForRouter("r2") {
		if io.Type == capture.SoftReconfig {
			soft = io
		}
	}
	if soft.ID == 0 || len(soft.Causes) != 1 || soft.Causes[0] != 4242 {
		t.Fatalf("soft reconfig = %+v", soft)
	}
	// R2's new RIB entry for P must chain from the soft reconfig.
	var rib capture.IO
	for _, io := range n.log.ForRouter("r2") {
		if io.Type == capture.RIBInstall && io.Prefix == prefixP && io.ID > soft.ID {
			rib = io
			break
		}
	}
	if rib.ID == 0 || len(rib.Causes) == 0 || rib.Causes[0] != soft.ID {
		t.Fatalf("rib after soft reconfig = %+v", rib)
	}
}

func TestAddPathAdvertisesAllPaths(t *testing.T) {
	n := newTestNet()
	// rr has two eBGP uplinks for P and one Add-Path iBGP peer.
	rr := n.addSpeaker("rr", "1.1.1.1", 65000, nil)
	client := n.addSpeaker("client", "2.2.2.2", 65000, nil)
	e1 := n.addSpeaker("e1", "100.0.0.1", 100, &config.BGPConfig{
		ASN: 100, RouterID: addr("100.0.0.1"), Networks: []netip.Prefix{prefixP},
	})
	e2 := n.addSpeaker("e2", "200.0.0.1", 200, &config.BGPConfig{
		ASN: 200, RouterID: addr("200.0.0.1"), Networks: []netip.Prefix{prefixP},
	})
	n.connect(rr, client, route.PeerIBGP, func(sa, sb *Session) { sa.AddPath, sb.AddPath = true, true })
	n.connect(rr, e1, route.PeerEBGP, nil)
	n.connect(rr, e2, route.PeerEBGP, nil)
	e1.Start()
	e2.Start()
	n.run(t)
	got := client.AdjIn(addr("1.1.1.1"))
	if len(got) != 2 {
		t.Fatalf("Add-Path client received %d paths, want 2: %v", len(got), got)
	}
	// Without Add-Path only the best would arrive.
	n2 := newTestNet()
	rrB := n2.addSpeaker("rr", "1.1.1.1", 65000, nil)
	clB := n2.addSpeaker("client", "2.2.2.2", 65000, nil)
	e1B := n2.addSpeaker("e1", "100.0.0.1", 100, &config.BGPConfig{
		ASN: 100, RouterID: addr("100.0.0.1"), Networks: []netip.Prefix{prefixP},
	})
	e2B := n2.addSpeaker("e2", "200.0.0.1", 200, &config.BGPConfig{
		ASN: 200, RouterID: addr("200.0.0.1"), Networks: []netip.Prefix{prefixP},
	})
	n2.connect(rrB, clB, route.PeerIBGP, nil)
	n2.connect(rrB, e1B, route.PeerEBGP, nil)
	n2.connect(rrB, e2B, route.PeerEBGP, nil)
	e1B.Start()
	e2B.Start()
	n2.run(t)
	if got := clB.AdjIn(addr("1.1.1.1")); len(got) != 1 {
		t.Fatalf("without Add-Path client received %d paths, want 1", len(got))
	}
}

func TestAddPathWithdrawRemovesPath(t *testing.T) {
	n := newTestNet()
	rr := n.addSpeaker("rr", "1.1.1.1", 65000, nil)
	client := n.addSpeaker("client", "2.2.2.2", 65000, nil)
	e1 := n.addSpeaker("e1", "100.0.0.1", 100, &config.BGPConfig{
		ASN: 100, RouterID: addr("100.0.0.1"), Networks: []netip.Prefix{prefixP},
	})
	e2 := n.addSpeaker("e2", "200.0.0.1", 200, &config.BGPConfig{
		ASN: 200, RouterID: addr("200.0.0.1"), Networks: []netip.Prefix{prefixP},
	})
	n.connect(rr, client, route.PeerIBGP, func(sa, sb *Session) { sa.AddPath, sb.AddPath = true, true })
	n.connect(rr, e1, route.PeerEBGP, nil)
	n.connect(rr, e2, route.PeerEBGP, nil)
	e1.Start()
	e2.Start()
	n.run(t)
	e2.cfg.Networks = nil
	e2.SoftReconfig()
	n.run(t)
	got := client.AdjIn(addr("1.1.1.1"))
	if len(got) != 1 {
		t.Fatalf("after withdraw client has %d paths, want 1: %v", len(got), got)
	}
}

func TestVendorQuirkChangesSelection(t *testing.T) {
	// Two routes, different neighbor AS, different MEDs: canonical skips
	// MED; VendorA compares it.
	build := func(q route.Quirks) netip.Addr {
		n := newTestNet()
		cfg := &config.BGPConfig{ASN: 65000, RouterID: addr("1.1.1.1"), Quirks: q}
		rec := capture.NewRecorder(n.log, "a", n.sched, nil)
		ft := fib.NewTable(rec)
		a := New("a", addr("1.1.1.1"), cfg, nil, rec, n.sched, ft, n, DefaultTiming())
		n.speakers[addr("1.1.1.1")] = a
		b := n.addSpeaker("b", "9.9.9.1", 900, nil)
		c := n.addSpeaker("c", "9.9.9.2", 901, nil)
		n.connect(a, b, route.PeerEBGP, nil)
		n.connect(a, c, route.PeerEBGP, nil)
		n.runQuiet()
		// b's route: MED 100, lower peer addr (wins router-ID tiebreak);
		// c's route: MED 5.
		n.sched.After(time.Millisecond, func() {
			a.HandleUpdate(addr("9.9.9.1"), Message{Prefix: prefixP, NextHop: addr("9.9.9.1"),
				Attrs: route.BGPAttrs{ASPath: []uint32{900}, MED: 100}}, 0)
			a.HandleUpdate(addr("9.9.9.2"), Message{Prefix: prefixP, NextHop: addr("9.9.9.2"),
				Attrs: route.BGPAttrs{ASPath: []uint32{901}, MED: 5}}, 0)
		})
		_ = n.sched.Run()
		return a.locRIB[prefixP].NextHop
	}
	canonical := build(route.Quirks{})
	vendorA := build(route.VendorA)
	if canonical != addr("9.9.9.1") {
		t.Fatalf("canonical picked %v", canonical)
	}
	if vendorA != addr("9.9.9.2") {
		t.Fatalf("always-compare-med picked %v", vendorA)
	}
}

func TestIdenticalReAdvertNoChurn(t *testing.T) {
	n, sp := paperNet(30)
	sp["e1"].Start()
	n.run(t)
	before := n.log.Len()
	sp["e1"].SoftReconfig()
	n.run(t)
	// Soft reconfig on e1 with unchanged config: one soft-reconfig event,
	// no new RIB/FIB/advert churn anywhere.
	after := n.log.Snapshot()[before:]
	for _, io := range after {
		if io.Type != capture.SoftReconfig {
			t.Fatalf("unexpected churn I/O: %v", io)
		}
	}
}

func TestIGPMetricTieBreak(t *testing.T) {
	n := newTestNet()
	a := n.addSpeaker("a", "1.1.1.1", 65000, nil)
	b := n.addSpeaker("b", "2.2.2.2", 65000, nil)
	c := n.addSpeaker("c", "3.3.3.3", 65000, nil)
	e1 := n.addSpeaker("e1", "100.0.0.1", 100, &config.BGPConfig{
		ASN: 100, RouterID: addr("100.0.0.1"), Networks: []netip.Prefix{prefixP},
	})
	e2 := n.addSpeaker("e2", "100.0.0.2", 100, &config.BGPConfig{
		ASN: 100, RouterID: addr("100.0.0.2"), Networks: []netip.Prefix{prefixP},
	})
	n.connect(a, b, route.PeerIBGP, nil)
	n.connect(a, c, route.PeerIBGP, nil)
	n.connect(b, e1, route.PeerEBGP, nil)
	n.connect(c, e2, route.PeerEBGP, nil)
	// a is far from b, near c.
	n.igp[addr("2.2.2.2")] = 100
	n.igp[addr("3.3.3.3")] = 5
	e1.Start()
	e2.Start()
	n.run(t)
	best := a.locRIB[prefixP]
	if best.NextHop != addr("3.3.3.3") {
		t.Fatalf("IGP tie-break picked %v, want 3.3.3.3", best.NextHop)
	}
}

func (n *testNet) runQuiet() { n.sched.MaxEvents = 100000; _ = n.sched.Run() }

func BenchmarkConvergenceFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, sp := paperNet(30)
		sp["e1"].Start()
		sp["e2"].Start()
		n.runQuiet()
	}
}
