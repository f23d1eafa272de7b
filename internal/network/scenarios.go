// Scenario builders: the paper's running example (Figs. 1 and 2) plus
// parameterized topologies used by the scaling experiments.

package network

import (
	"fmt"
	"net/netip"
	"time"

	"hbverify/internal/config"
	"hbverify/internal/route"
	"hbverify/internal/topology"
)

// PrefixP is the external destination prefix used throughout the paper's
// examples.
var PrefixP = netip.MustParsePrefix("203.0.113.0/24")

// PaperOpts parameterizes the Fig. 1 / Fig. 2 network.
type PaperOpts struct {
	// LPR1/LPR2 are the local preferences R1 and R2 assign to routes from
	// their uplinks. The paper's policy uses 20 and 30.
	LPR1, LPR2 uint32
	// AdvertiseE1/AdvertiseE2 choose which providers originate P at start.
	AdvertiseE1, AdvertiseE2 bool
	// ClockSkew/ClockJitter apply to the internal routers' wall clocks.
	ClockSkew, ClockJitter time.Duration
	// Quirks optionally sets vendor profiles per internal router.
	Quirks map[string]route.Quirks
	// AddPath enables BGP Add-Path on the iBGP mesh.
	AddPath bool
}

// DefaultPaperOpts is the Fig. 1 configuration: R2's uplink preferred.
func DefaultPaperOpts() PaperOpts {
	return PaperOpts{LPR1: 20, LPR2: 30, AdvertiseE1: true, AdvertiseE2: true}
}

// PaperNet is the assembled 5-router network: R1,R2,R3 in AS 65000 with an
// OSPF-run triangle and an iBGP full mesh; providers E1 (AS 100) and E2
// (AS 200) attach to R1 and R2 respectively and can originate P.
type PaperNet struct {
	*Network
	P netip.Prefix
}

// Internal reports whether name is one of the AS-65000 routers.
func (p *PaperNet) Internal(name string) bool {
	return name == "r1" || name == "r2" || name == "r3"
}

// BuildPaper constructs (but does not start) the paper network.
func BuildPaper(seed int64, opt PaperOpts) (*PaperNet, error) {
	n := New(seed)
	add := func(name, lb string, skew, jit time.Duration) error {
		_, err := n.AddRouter(name, lb, skew, jit)
		return err
	}
	for _, r := range []struct{ name, lb string }{
		{"r1", "1.1.1.1"}, {"r2", "2.2.2.2"}, {"r3", "3.3.3.3"},
	} {
		if err := add(r.name, r.lb, opt.ClockSkew, opt.ClockJitter); err != nil {
			return nil, err
		}
	}
	if err := add("e1", "100.0.0.1", 0, 0); err != nil {
		return nil, err
	}
	if err := add("e2", "200.0.0.1", 0, 0); err != nil {
		return nil, err
	}

	links := []struct {
		a, b   string
		subnet string
	}{
		{"r1", "r2", "10.0.1.0/30"},
		{"r1", "r3", "10.0.2.0/30"},
		{"r2", "r3", "10.0.3.0/30"},
		{"r1", "e1", "10.0.4.0/30"},
		{"r2", "e2", "10.0.5.0/30"},
	}
	addrInSubnet := func(subnet string, host int) netip.Addr {
		p := netip.MustParsePrefix(subnet)
		a := p.Addr().As4()
		a[3] += byte(host)
		return netip.AddrFrom4(a)
	}
	for _, l := range links {
		if _, err := n.Topo.AddLink(LinkSpecOf(l.a, l.b, l.subnet)); err != nil {
			return nil, err
		}
	}
	// Providers own the destination prefix P as a stub LAN.
	if _, err := n.Topo.AddStub("e1", "lanP", addrInSubnet("203.0.113.0/24", 1), PrefixP); err != nil {
		return nil, err
	}
	if _, err := n.Topo.AddStub("e2", "lanP", addrInSubnet("203.0.113.0/24", 2), PrefixP); err != nil {
		return nil, err
	}

	quirk := func(name string) route.Quirks {
		if opt.Quirks == nil {
			return route.Quirks{}
		}
		return opt.Quirks[name]
	}
	ibgpNeighbors := func(self string) []config.Neighbor {
		var out []config.Neighbor
		for _, peer := range []struct{ name, lb string }{
			{"r1", "1.1.1.1"}, {"r2", "2.2.2.2"}, {"r3", "3.3.3.3"},
		} {
			if peer.name == self {
				continue
			}
			out = append(out, config.Neighbor{
				Addr: netip.MustParseAddr(peer.lb), RemoteAS: 65000, AddPath: opt.AddPath,
			})
		}
		return out
	}

	r1cfg := &config.Router{
		BGP: &config.BGPConfig{
			ASN: 65000, RouterID: netip.MustParseAddr("1.1.1.1"),
			Neighbors: append(ibgpNeighbors("r1"), config.Neighbor{
				Addr: addrInSubnet("10.0.4.0/30", 2), RemoteAS: 100, LocalPref: opt.LPR1,
			}),
			Quirks: quirk("r1"),
		},
		OSPF: config.OSPFConfig{Enabled: true, Interfaces: []string{"eth-r2", "eth-r3"}},
	}
	r2cfg := &config.Router{
		BGP: &config.BGPConfig{
			ASN: 65000, RouterID: netip.MustParseAddr("2.2.2.2"),
			Neighbors: append(ibgpNeighbors("r2"), config.Neighbor{
				Addr: addrInSubnet("10.0.5.0/30", 2), RemoteAS: 200, LocalPref: opt.LPR2,
			}),
			Quirks: quirk("r2"),
		},
		OSPF: config.OSPFConfig{Enabled: true, Interfaces: []string{"eth-r1", "eth-r3"}},
	}
	r3cfg := &config.Router{
		BGP: &config.BGPConfig{
			ASN: 65000, RouterID: netip.MustParseAddr("3.3.3.3"),
			Neighbors: ibgpNeighbors("r3"),
			Quirks:    quirk("r3"),
		},
		OSPF: config.OSPFConfig{Enabled: true, Interfaces: []string{"eth-r1", "eth-r2"}},
	}
	e1cfg := &config.Router{
		BGP: &config.BGPConfig{
			ASN: 100, RouterID: netip.MustParseAddr("100.0.0.1"),
			Neighbors: []config.Neighbor{{Addr: addrInSubnet("10.0.4.0/30", 1), RemoteAS: 65000}},
		},
	}
	if opt.AdvertiseE1 {
		e1cfg.BGP.Networks = []netip.Prefix{PrefixP}
	}
	e2cfg := &config.Router{
		BGP: &config.BGPConfig{
			ASN: 200, RouterID: netip.MustParseAddr("200.0.0.1"),
			Neighbors: []config.Neighbor{{Addr: addrInSubnet("10.0.5.0/30", 1), RemoteAS: 65000}},
		},
	}
	if opt.AdvertiseE2 {
		e2cfg.BGP.Networks = []netip.Prefix{PrefixP}
	}
	for name, cfg := range map[string]*config.Router{
		"r1": r1cfg, "r2": r2cfg, "r3": r3cfg, "e1": e1cfg, "e2": e2cfg,
	} {
		if err := n.Configure(name, cfg); err != nil {
			return nil, err
		}
	}
	if err := n.Build(); err != nil {
		return nil, err
	}
	return &PaperNet{Network: n, P: PrefixP}, nil
}

// LinkSpecOf builds a topology.LinkSpec over subnet with conventional
// interface names ("eth-<peer>"), the subnet's first host address on a and
// its second on b, and a 1ms delay.
func LinkSpecOf(a, b, subnet string) topology.LinkSpec {
	p := netip.MustParsePrefix(subnet)
	return topology.LinkSpec{
		ARouter: a, AIface: "eth-" + b, AAddr: p.Addr().Next(),
		BRouter: b, BIface: "eth-" + a, BAddr: p.Addr().Next().Next(),
		Prefix: p,
		Delay:  time.Millisecond,
	}
}

// BuildGridOSPF constructs a rows x cols OSPF grid used by the scaling
// experiments (E9). Routers are named "g<r>-<c>".
func BuildGridOSPF(seed int64, rows, cols int) (*Network, error) {
	n := New(seed)
	name := func(r, c int) string { return fmt.Sprintf("g%d-%d", r, c) }
	lb := func(r, c int) string { return fmt.Sprintf("9.%d.%d.1", r, c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if _, err := n.AddRouter(name(r, c), lb(r, c), 0, 0); err != nil {
				return nil, err
			}
			if err := n.Configure(name(r, c), &config.Router{
				OSPF: config.OSPFConfig{Enabled: true},
			}); err != nil {
				return nil, err
			}
		}
	}
	link := 0
	addLink := func(a, b string) error {
		link++
		_, err := n.Topo.AddLink(LinkSpecOf(a, b, fmt.Sprintf("10.%d.%d.0/30", link/250, link%250)))
		return err
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := addLink(name(r, c), name(r, c+1)); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := addLink(name(r, c), name(r+1, c)); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := n.Build(); err != nil {
		return nil, err
	}
	return n, nil
}
