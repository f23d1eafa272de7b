package dataplane

import (
	"net/netip"
	"slices"

	"hbverify/internal/fib"
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

// StepOf applies the forwarding behaviour of router state s to dst:
// delivery on a connected interface or the loopback, then longest-prefix
// match, then every ECMP member of the match resolved to the adjacent
// router it hands the packet to. Every reader of a router's forwarding —
// the walker, a fleet node, a local check — takes this one step, so none
// can disagree about what a router does. Nexts is sorted and deduplicated;
// a member that resolves back to this router records local delivery.
func StepOf(s State, dst netip.Addr) Step {
	ifaces := s.Ifaces()
	for _, i := range ifaces {
		// A stub LAN delivers every host in its subnet. A point-to-point
		// link delivers only its two interface addresses; any other address
		// in the subnet falls through to the FIB.
		if i.Up && i.Prefix.Contains(dst) && (i.Stub || i.Addr == dst || i.PeerAddr == dst) {
			return Step{Expansion: Expansion{Delivered: true}}
		}
	}
	if dst == s.Loopback() {
		return Step{Expansion: Expansion{Delivered: true}}
	}
	e, ok := s.Lookup(dst)
	if !ok {
		return Step{Expansion: Expansion{Dropped: true}}
	}
	st := Step{Entry: e, HasRoute: true}
	if e.HopCount() == 0 {
		// Connected/attached route: delivered out of this router.
		st.Delivered = true
		return st
	}
	var chain [maxResolveDepth]netip.Addr
	r := resolver{s, ifaces}
	for k := 0; k < e.HopCount(); k++ {
		r.resolve(e.Hop(k), chain[:0], &st)
	}
	slices.Sort(st.Nexts)
	st.Nexts = slices.Compact(st.Nexts)
	return st
}

// resolver is one router's state with its interfaces read once.
type resolver struct {
	s      State
	ifaces []Iface
}

// adjacent reports whom next hop nh is directly handed to: the peer when
// nh is the far end of an up link, this router (local) when nh is one of
// its own addresses or lies in a stub subnet (the local delivery domain).
// Only what is up counts: a down interface neither reaches its peer nor
// makes its own address local.
func (r resolver) adjacent(nh netip.Addr) (peer string, local, ok bool) {
	for _, i := range r.ifaces {
		if !i.Up {
			continue
		}
		switch {
		case i.Addr == nh:
			return "", true, true
		case !i.Prefix.Contains(nh):
		case i.PeerAddr == nh:
			return i.PeerName, false, true
		case i.Stub:
			return "", true, true
		}
	}
	local = nh == r.s.Loopback()
	return "", local, local
}

// resolve maps next hop nh to the adjacent routers the packet may be handed
// to and records them in st. A next hop that is not on a connected subnet
// is looked up in the FIB in turn (the recursive resolution iBGP relies
// on), fanning out through every member of a multipath entry. chain holds
// the next hops already being resolved above this one. Every call either
// adds a branch to st or marks it Stuck, so a routed Step is never empty.
func (r resolver) resolve(nh netip.Addr, chain []netip.Addr, st *Step) {
	if peer, local, ok := r.adjacent(nh); ok {
		if local {
			st.Delivered = true
		} else {
			st.Nexts = append(st.Nexts, peer)
		}
		return
	}
	for _, seen := range chain {
		if seen == nh {
			st.Stuck, st.Cycle = true, true
			return
		}
	}
	if len(chain) == maxResolveDepth {
		st.Stuck = true
		return
	}
	e, ok := r.s.Lookup(nh)
	if !ok || e.HopCount() == 0 {
		// No route — or a connected route although no up interface claimed
		// nh above, which means its link is down or nh is nobody's address.
		st.Stuck = true
		return
	}
	chain = append(chain, nh)
	for k := 0; k < e.HopCount(); k++ {
		r.resolve(e.Hop(k), chain, st)
	}
}
