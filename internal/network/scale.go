// Scale topology builders: a k-ary fat-tree (the classic data-center
// Clos) exercising OSPF convergence at hundreds of routers, and an ISP-style
// route-reflector hierarchy carrying hundreds of thousands of BGP prefixes.
// Both feed the scenario harness's scale shapes ("fattree-k4", "isp-rr");
// the fat-tree also hosts hbbench's churn_reverify and query_mix workloads.

package network

import (
	"fmt"
	"net/netip"

	"hbverify/internal/config"
	"hbverify/internal/topology"
)

// BuildFatTree constructs a k-ary fat-tree running OSPF everywhere: k pods
// of k/2 edge and k/2 aggregation routers, plus (k/2)^2 cores. k must be
// even. k=16 yields 320 routers and 2048 links. Routers are named
// "p<pod>e<i>" / "p<pod>a<i>" / "core<i>".
func BuildFatTree(seed int64, k int) (*Network, error) {
	n, err := LayoutFatTree(seed, k)
	if err != nil {
		return nil, err
	}
	if err := n.Build(); err != nil {
		return nil, err
	}
	return n, nil
}

// LayoutFatTree constructs the fat-tree's routers, links, and configs but
// does not Build, so callers (the scenario harness) can attach stub LANs —
// destination prefixes — before the protocol stacks come up.
func LayoutFatTree(seed int64, k int) (*Network, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("network: fat-tree k must be even and >= 2, got %d", k)
	}
	half := k / 2
	n := New(seed)
	add := func(name, lb string) error {
		if _, err := n.AddRouter(name, lb, 0, 0); err != nil {
			return err
		}
		return n.Configure(name, &config.Router{OSPF: config.OSPFConfig{Enabled: true}})
	}
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			if err := add(fmt.Sprintf("p%de%d", p, i), fmt.Sprintf("9.1.%d.%d", p, i+1)); err != nil {
				return nil, err
			}
			if err := add(fmt.Sprintf("p%da%d", p, i), fmt.Sprintf("9.2.%d.%d", p, i+1)); err != nil {
				return nil, err
			}
		}
	}
	for c := 0; c < half*half; c++ {
		if err := add(fmt.Sprintf("core%d", c), fmt.Sprintf("9.3.%d.%d", c/250, c%250+1)); err != nil {
			return nil, err
		}
	}
	link := 0
	addLink := func(a, b string) error {
		subnet := fmt.Sprintf("10.%d.%d.0/30", link/250, link%250)
		link++
		_, err := n.Topo.AddLink(LinkSpecOf(a, b, subnet))
		return err
	}
	for p := 0; p < k; p++ {
		// Full bipartite edge<->agg mesh inside the pod.
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				if err := addLink(fmt.Sprintf("p%de%d", p, e), fmt.Sprintf("p%da%d", p, a)); err != nil {
					return nil, err
				}
			}
		}
		// Aggregation i uplinks to cores [i*half, (i+1)*half).
		for a := 0; a < half; a++ {
			for u := 0; u < half; u++ {
				if err := addLink(fmt.Sprintf("p%da%d", p, a), fmt.Sprintf("core%d", a*half+u)); err != nil {
					return nil, err
				}
			}
		}
	}
	return n, nil
}

// LayoutISPRR constructs, without Build, an ISP-style BGP route-reflector
// hierarchy in AS 65000: one top-level reflector, `mids` mid-tier reflectors
// (clients of the top), and `leaves` PE routers per mid (clients of their
// mid), all over an OSPF underlay. An external provider "ext" (AS 100) peers
// eBGP with "pe0-0" and originates the given prefixes; its export policy
// stamps a community and MED per /8 so routes arrive in a handful of
// attribute flavors, as real transit feeds do. Callers attach stub LANs for
// the originated prefixes before they Build.
func LayoutISPRR(seed int64, mids, leaves int, prefixes []netip.Prefix) (*Network, error) {
	if mids < 1 || leaves < 1 {
		return nil, fmt.Errorf("network: ISP RR needs mids, leaves >= 1 (got %d, %d)", mids, leaves)
	}
	n := New(seed)
	topLB := netip.MustParseAddr("9.0.0.1")
	midLB := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{9, 0, 1, byte(i + 1)}) }
	peLB := func(i, j int) netip.Addr { return netip.AddrFrom4([4]byte{9, 0, 2, byte(i*leaves + j + 1)}) }
	peName := func(i, j int) string { return fmt.Sprintf("pe%d-%d", i, j) }
	if _, err := n.AddRouter("top", topLB.String(), 0, 0); err != nil {
		return nil, err
	}
	for i := 0; i < mids; i++ {
		if _, err := n.AddRouter(fmt.Sprintf("mid%d", i), midLB(i).String(), 0, 0); err != nil {
			return nil, err
		}
		for j := 0; j < leaves; j++ {
			if _, err := n.AddRouter(peName(i, j), peLB(i, j).String(), 0, 0); err != nil {
				return nil, err
			}
		}
	}
	if _, err := n.AddRouter("ext", "100.0.0.1", 0, 0); err != nil {
		return nil, err
	}
	link := 0
	addLink := func(a, b string) (*topology.Link, error) {
		subnet := fmt.Sprintf("10.%d.%d.0/30", link/250, link%250)
		link++
		return n.Topo.AddLink(LinkSpecOf(a, b, subnet))
	}
	for i := 0; i < mids; i++ {
		if _, err := addLink("top", fmt.Sprintf("mid%d", i)); err != nil {
			return nil, err
		}
		for j := 0; j < leaves; j++ {
			if _, err := addLink(fmt.Sprintf("mid%d", i), peName(i, j)); err != nil {
				return nil, err
			}
		}
	}
	extLink, err := addLink(peName(0, 0), "ext")
	if err != nil {
		return nil, err
	}
	peAddr, extAddr := extLink.A.Addr, extLink.B.Addr

	topNbrs := make([]config.Neighbor, 0, mids)
	for i := 0; i < mids; i++ {
		topNbrs = append(topNbrs, config.Neighbor{Addr: midLB(i), RemoteAS: 65000, RRClient: true})
	}
	if err := n.Configure("top", &config.Router{
		BGP:  &config.BGPConfig{ASN: 65000, RouterID: topLB, Neighbors: topNbrs},
		OSPF: config.OSPFConfig{Enabled: true},
	}); err != nil {
		return nil, err
	}
	for i := 0; i < mids; i++ {
		nbrs := []config.Neighbor{{Addr: topLB, RemoteAS: 65000}}
		for j := 0; j < leaves; j++ {
			nbrs = append(nbrs, config.Neighbor{Addr: peLB(i, j), RemoteAS: 65000, RRClient: true})
		}
		if err := n.Configure(fmt.Sprintf("mid%d", i), &config.Router{
			BGP:  &config.BGPConfig{ASN: 65000, RouterID: midLB(i), Neighbors: nbrs},
			OSPF: config.OSPFConfig{Enabled: true},
		}); err != nil {
			return nil, err
		}
		for j := 0; j < leaves; j++ {
			cfg := &config.Router{
				BGP: &config.BGPConfig{
					ASN: 65000, RouterID: peLB(i, j),
					Neighbors: []config.Neighbor{{Addr: midLB(i), RemoteAS: 65000}},
				},
				OSPF: config.OSPFConfig{Enabled: true},
			}
			if i == 0 && j == 0 {
				// The ext-facing interface stays out of the IGP.
				cfg.OSPF.Interfaces = []string{"eth-mid0"}
				cfg.BGP.Neighbors = append(cfg.BGP.Neighbors, config.Neighbor{
					Addr: extAddr, RemoteAS: 100, LocalPref: 150,
				})
			}
			if err := n.Configure(peName(i, j), cfg); err != nil {
				return nil, err
			}
		}
	}
	// Per-/8 attribute flavors: community and MED derived from the first
	// octet, so 500K prefixes intern down to a handful of canonical sets.
	flavor := &config.Policy{Name: "flavor"}
	for o := 24; o <= 31; o++ {
		p8 := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(o), 0, 0, 0}), 8)
		flavor.Terms = append(flavor.Terms,
			config.PolicyTerm{Match: config.MatchPrefixOrLonger, Prefix: p8, Action: config.ActionAddCommunity, Value: uint32(o)},
			config.PolicyTerm{Match: config.MatchPrefixOrLonger, Prefix: p8, Action: config.ActionSetMED, Value: uint32(o % 4)},
		)
	}
	if err := n.Configure("ext", &config.Router{
		BGP: &config.BGPConfig{
			ASN: 100, RouterID: netip.MustParseAddr("100.0.0.1"),
			Neighbors: []config.Neighbor{{Addr: peAddr, RemoteAS: 65000, ExportPolicy: "flavor"}},
			Networks:  prefixes,
		},
		Policies: map[string]*config.Policy{"flavor": flavor},
	}); err != nil {
		return nil, err
	}
	return n, nil
}
