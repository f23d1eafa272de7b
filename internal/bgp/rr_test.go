package bgp

import (
	"net/netip"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/route"
)

// rrNet builds a hub-and-spoke iBGP topology: rr is the route reflector,
// c1/c2/c3 are clients with NO sessions among themselves. c1 has an eBGP
// uplink to e1 that originates P.
func rrNet(t *testing.T) (*testNet, map[string]*Speaker) {
	t.Helper()
	n := newTestNet()
	rr := n.addSpeaker("rr", "10.255.0.1", 65000, nil)
	c1 := n.addSpeaker("c1", "10.255.0.2", 65000, nil)
	c2 := n.addSpeaker("c2", "10.255.0.3", 65000, nil)
	c3 := n.addSpeaker("c3", "10.255.0.4", 65000, nil)
	e1 := n.addSpeaker("e1", "100.0.0.1", 100, &config.BGPConfig{
		ASN: 100, RouterID: addr("100.0.0.1"), Networks: []netip.Prefix{prefixP},
	})
	for _, c := range []*Speaker{c1, c2, c3} {
		n.connect(rr, c, route.PeerIBGP, func(sa, _ *Session) { sa.RRClient = true })
	}
	n.connect(c1, e1, route.PeerEBGP, nil)
	return n, map[string]*Speaker{"rr": rr, "c1": c1, "c2": c2, "c3": c3, "e1": e1}
}

func TestReflectionClientToClients(t *testing.T) {
	n, sp := rrNet(t)
	sp["e1"].Start()
	n.run(t)
	// Without reflection c2/c3 could never learn P (no mesh). With it:
	for _, name := range []string{"c2", "c3"} {
		best, ok := sp[name].locRIB[prefixP]
		if !ok {
			t.Fatalf("%s never learned P through the reflector", name)
		}
		// Next hop preserved across reflection: c1's loopback, not rr's.
		if best.NextHop != addr("10.255.0.2") {
			t.Fatalf("%s next hop = %v, want c1 (reflection must not rewrite)", name, best.NextHop)
		}
	}
	// The reflector itself selected the route too.
	if _, ok := sp["rr"].locRIB[prefixP]; !ok {
		t.Fatal("rr has no route")
	}
}

func TestReflectionStampsOriginatorAndCluster(t *testing.T) {
	n, sp := rrNet(t)
	sp["e1"].Start()
	n.run(t)
	got := sp["c2"].AdjIn(addr("10.255.0.1"))
	if len(got) != 1 {
		t.Fatalf("c2 adj-in = %v", got)
	}
	attrs := got[0].Attrs
	if attrs.OriginatorID != addr("10.255.0.2") {
		t.Fatalf("originator = %v, want c1's loopback", attrs.OriginatorID)
	}
	if len(attrs.ClusterList) != 1 || attrs.ClusterList[0] != addr("10.255.0.1") {
		t.Fatalf("cluster list = %v, want [rr]", attrs.ClusterList)
	}
}

func TestReflectionLoopPrevention(t *testing.T) {
	n, sp := rrNet(t)
	sp["e1"].Start()
	n.run(t)
	// Hand-deliver a reflected route whose cluster list already contains
	// rr: it must be discarded.
	before := len(sp["rr"].AdjIn(addr("10.255.0.3")))
	n.sched.After(1, func() {
		sp["rr"].HandleUpdate(addr("10.255.0.3"), Message{
			Prefix: prefixP, NextHop: addr("10.255.0.3"),
			Attrs: route.BGPAttrs{
				ASPath:      []uint32{100},
				ClusterList: []netip.Addr{addr("10.255.0.1")},
			},
		}, 0)
	})
	n.run(t)
	if got := len(sp["rr"].AdjIn(addr("10.255.0.3"))); got != before {
		t.Fatalf("looped reflection stored: %d -> %d", before, got)
	}
}

func TestReflectionOwnOriginatorRejected(t *testing.T) {
	n, sp := rrNet(t)
	sp["e1"].Start()
	n.run(t)
	before := len(sp["c1"].AdjIn(addr("10.255.0.1")))
	n.sched.After(1, func() {
		sp["c1"].HandleUpdate(addr("10.255.0.1"), Message{
			Prefix:  netip.MustParsePrefix("198.51.100.0/24"),
			NextHop: addr("10.255.0.4"),
			Attrs: route.BGPAttrs{
				ASPath:       []uint32{100},
				OriginatorID: addr("10.255.0.2"), // c1's own loopback
			},
		}, 0)
	})
	n.run(t)
	if got := len(sp["c1"].AdjIn(addr("10.255.0.1"))); got != before {
		t.Fatal("route with own originator-ID stored")
	}
}

func TestReflectionWithdrawPropagates(t *testing.T) {
	n, sp := rrNet(t)
	sp["e1"].Start()
	n.run(t)
	sp["e1"].cfg.Networks = nil
	sp["e1"].SoftReconfig()
	n.run(t)
	for _, name := range []string{"rr", "c1", "c2", "c3"} {
		if _, ok := sp[name].locRIB[prefixP]; ok {
			t.Fatalf("%s kept withdrawn reflected route", name)
		}
	}
}

func TestNonClientNotReflectedToNonClient(t *testing.T) {
	// Two non-client iBGP peers of a non-reflecting hub: no propagation
	// (the classic full-mesh requirement).
	n := newTestNet()
	hub := n.addSpeaker("hub", "10.255.0.1", 65000, nil)
	p1 := n.addSpeaker("p1", "10.255.0.2", 65000, nil)
	p2 := n.addSpeaker("p2", "10.255.0.3", 65000, nil)
	e1 := n.addSpeaker("e1", "100.0.0.1", 100, &config.BGPConfig{
		ASN: 100, RouterID: addr("100.0.0.1"), Networks: []netip.Prefix{prefixP},
	})
	n.connect(hub, p1, route.PeerIBGP, nil)
	n.connect(hub, p2, route.PeerIBGP, nil)
	n.connect(p1, e1, route.PeerEBGP, nil)
	e1.Start()
	n.run(t)
	if _, ok := hub.locRIB[prefixP]; !ok {
		t.Fatal("hub missing route")
	}
	if _, ok := p2.locRIB[prefixP]; ok {
		t.Fatal("non-client route leaked through non-reflector")
	}
}
