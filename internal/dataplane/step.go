package dataplane

import (
	"net/netip"
	"slices"

	"hbverify/internal/fib"
	"hbverify/internal/topology"
)

// Iface is one interface as the router that owns it sees it: its own
// address and subnet, who is on the other end, and whether the link is up.
type Iface struct {
	Name     string
	Addr     netip.Addr
	Prefix   netip.Prefix
	PeerAddr netip.Addr // zero for stubs
	PeerName string
	Up       bool
	// Stub marks a LAN attachment with no modelled peer; stubs never go down.
	Stub bool
}

// IfacesOf lists a topology router's interfaces, sorted by name, with the
// link state they have right now.
func IfacesOf(r *topology.Router) []Iface {
	tis := r.Interfaces()
	out := make([]Iface, len(tis))
	for k, i := range tis {
		out[k] = Iface{Name: i.Name, Addr: i.Addr, Prefix: i.Prefix, Stub: i.Link == nil, Up: true}
		if i.Link != nil {
			out[k].Up = i.Link.Up()
			out[k].PeerAddr = i.Peer().Addr
			out[k].PeerName = i.Peer().Router
		}
	}
	return out
}

// Local is everything a single router knows when it forwards a packet: who
// it is, its interfaces, and a longest-prefix match over its own FIB. The
// forwarding step is written against this and nothing else, so the central
// walker (Walker.Expand over a live or snapshot View) and a fleet node
// (dist.LocalView) cannot disagree about what a router does.
type Local struct {
	Router   string
	Loopback netip.Addr
	Ifaces   []Iface
	Lookup   func(dst netip.Addr) (fib.Entry, bool)
}

// Step is one router's forwarding decision for a destination.
type Step struct {
	Expansion
	// Entry is the covering FIB entry, valid when HasRoute. A destination
	// delivered on a connected interface never reaches the FIB and leaves
	// HasRoute false.
	Entry    fib.Entry
	HasRoute bool
	// Cycle is set when recursive resolution of some member next hop came
	// back to a next hop it was already resolving (two statics resolving
	// through each other). Such a member is also Stuck — a walk cannot tell
	// the two apart — but local checks report the cycle as its own fault.
	Cycle bool
}

// maxResolveDepth bounds the FIB lookups along one recursive resolution
// chain. Cycles are detected on the chain itself, so the bound only cuts
// off pathologically long acyclic chains.
const maxResolveDepth = 4

// Step applies the router's forwarding behaviour to dst: delivery on a
// connected interface or the loopback, then longest-prefix match, then
// every ECMP member of the match resolved to the adjacent router it hands
// the packet to. Nexts is sorted and deduplicated; a member that resolves
// back to this router records local delivery.
func (l *Local) Step(dst netip.Addr) Step {
	for _, i := range l.Ifaces {
		// A stub LAN delivers every host in its subnet. A point-to-point
		// link delivers only its two interface addresses; any other address
		// in the subnet falls through to the FIB.
		if i.Up && i.Prefix.Contains(dst) && (i.Stub || i.Addr == dst || i.PeerAddr == dst) {
			return Step{Expansion: Expansion{Delivered: true}}
		}
	}
	if dst == l.Loopback {
		return Step{Expansion: Expansion{Delivered: true}}
	}
	e, ok := l.Lookup(dst)
	if !ok {
		return Step{Expansion: Expansion{Dropped: true}}
	}
	s := Step{Entry: e, HasRoute: true}
	if e.HopCount() == 0 {
		// Connected/attached route: delivered out of this router.
		s.Delivered = true
		return s
	}
	var chain [maxResolveDepth]netip.Addr
	for k := 0; k < e.HopCount(); k++ {
		l.resolve(e.Hop(k), chain[:0], &s)
	}
	slices.Sort(s.Nexts)
	s.Nexts = slices.Compact(s.Nexts)
	return s
}

// adjacent reports the router next hop nh is directly handed to: the peer
// when nh is the far end of an up link, this router when nh is one of its
// own addresses or lies in a stub subnet (the local delivery domain). Only
// what is up counts: a down interface neither reaches its peer nor makes
// its own address local.
func (l *Local) adjacent(nh netip.Addr) (router string, ok bool) {
	for _, i := range l.Ifaces {
		if !i.Up {
			continue
		}
		switch {
		case i.Addr == nh:
			return l.Router, true
		case !i.Prefix.Contains(nh):
		case i.PeerAddr == nh:
			return i.PeerName, true
		case i.Stub:
			return l.Router, true
		}
	}
	return l.Router, nh == l.Loopback
}

// resolve maps next hop nh to the adjacent routers the packet may be handed
// to and records them in s. A next hop that is not on a connected subnet is
// looked up in the FIB in turn (the recursive resolution iBGP relies on),
// fanning out through every member of a multipath entry. chain holds the
// next hops already being resolved above this one. Every call either adds
// a branch to s or marks it Stuck, so a routed Step is never empty.
func (l *Local) resolve(nh netip.Addr, chain []netip.Addr, s *Step) {
	if router, ok := l.adjacent(nh); ok {
		if router == l.Router {
			s.Delivered = true
		} else {
			s.Nexts = append(s.Nexts, router)
		}
		return
	}
	for _, seen := range chain {
		if seen == nh {
			s.Stuck, s.Cycle = true, true
			return
		}
	}
	if len(chain) == maxResolveDepth {
		s.Stuck = true
		return
	}
	e, ok := l.Lookup(nh)
	if !ok || e.HopCount() == 0 {
		// No route — or a connected route although no up interface claimed
		// nh above, which means its link is down or nh is nobody's address.
		s.Stuck = true
		return
	}
	chain = append(chain, nh)
	for k := 0; k < e.HopCount(); k++ {
		l.resolve(e.Hop(k), chain, s)
	}
}
