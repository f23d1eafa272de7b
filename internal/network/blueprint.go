// Blueprint: a serializable description of a network sufficient to
// instantiate an emulated copy — the mechanism behind the what-if engine
// (§8 points at CrystalNet: "runs an emulated copy of the network and can
// inject faults").

package network

import (
	"net/netip"
	"time"

	"hbverify/internal/config"
	"hbverify/internal/topology"
)

// RouterSpec describes one router in a blueprint.
type RouterSpec struct {
	Name     string
	Loopback netip.Addr
}

// StubSpec describes a stub attachment.
type StubSpec struct {
	Router string
	Iface  string
	Addr   netip.Addr
	Prefix netip.Prefix
}

// Blueprint captures topology, configuration, and timing so a copy of the
// network can be built and converged independently of the original.
type Blueprint struct {
	Routers   []RouterSpec
	Links     []topology.LinkSpec
	DownLinks [][2]string // router-name pairs whose link is currently down
	Stubs     []StubSpec
	Configs   map[string]*config.Router

	BGPSessionJitter  time.Duration
	SoftReconfigDelay time.Duration
}

// Blueprint extracts a copy-able description of the network's current
// topology and configuration. Clock-skew models are deliberately not
// copied: the emulated copy runs with perfect clocks (it is an oracle, not
// a log source).
func (n *Network) Blueprint() *Blueprint {
	bp := &Blueprint{
		Configs:           map[string]*config.Router{},
		BGPSessionJitter:  n.BGPSessionJitter,
		SoftReconfigDelay: n.SoftReconfigDelay,
	}
	for _, r := range n.Routers() {
		bp.Routers = append(bp.Routers, RouterSpec{Name: r.Name, Loopback: r.Topo.Loopback})
		bp.Configs[r.Name] = r.Cfg.Clone()
		for _, i := range r.Topo.Interfaces() {
			if i.Link == nil {
				bp.Stubs = append(bp.Stubs, StubSpec{
					Router: r.Name, Iface: i.Name, Addr: i.Addr, Prefix: i.Prefix,
				})
			}
		}
	}
	for _, l := range n.Topo.Links() {
		bp.Links = append(bp.Links, topology.LinkSpec{
			ARouter: l.A.Router, AIface: l.A.Name, AAddr: l.A.Addr,
			BRouter: l.B.Router, BIface: l.B.Name, BAddr: l.B.Addr,
			Prefix: l.A.Prefix, Delay: l.Delay, Jitter: l.Jitter, Cost: l.Cost,
		})
		if !l.Up() {
			bp.DownLinks = append(bp.DownLinks, [2]string{l.A.Router, l.B.Router})
		}
	}
	return bp
}

// Instantiate builds an unstarted network from the blueprint. Call Start
// and Run on the result to converge the copy.
func (bp *Blueprint) Instantiate(seed int64) (*Network, error) {
	n := New(seed)
	n.BGPSessionJitter = bp.BGPSessionJitter
	n.SoftReconfigDelay = bp.SoftReconfigDelay
	for _, r := range bp.Routers {
		if _, err := n.AddRouter(r.Name, r.Loopback.String(), 0, 0); err != nil {
			return nil, err
		}
	}
	for _, l := range bp.Links {
		if _, err := n.Topo.AddLink(l); err != nil {
			return nil, err
		}
	}
	for _, s := range bp.Stubs {
		if _, err := n.Topo.AddStub(s.Router, s.Iface, s.Addr, s.Prefix); err != nil {
			return nil, err
		}
	}
	for name, cfg := range bp.Configs {
		if err := n.Configure(name, cfg.Clone()); err != nil {
			return nil, err
		}
	}
	// Link state must be set before Build so protocol adjacencies start in
	// the right state.
	for _, pair := range bp.DownLinks {
		if l := n.Topo.LinkBetween(pair[0], pair[1]); l != nil {
			l.SetUp(false)
		}
	}
	if err := n.Build(); err != nil {
		return nil, err
	}
	return n, nil
}
