// Package ospf implements a link-state IGP in the style of single-area
// OSPF: router LSAs, reliable flooding with sequence numbers, and Dijkstra
// shortest-path-first computation. Besides installing internal routes, the
// instance supplies the IGP metric BGP uses to rank next hops and to
// resolve iBGP next-hop-self loopbacks.
package ospf

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// LinkDesc describes one point-to-point adjacency in a router LSA.
type LinkDesc struct {
	NeighborID netip.Addr // neighbor's router ID
	Cost       uint32
	Prefix     netip.Prefix // the link subnet
	LocalAddr  netip.Addr   // originator's address on the link
}

// StubDesc describes a stub network in a router LSA.
type StubDesc struct {
	Prefix netip.Prefix
	Cost   uint32
}

// LSA is a router link-state advertisement.
type LSA struct {
	Origin netip.Addr
	Seq    uint64
	Links  []LinkDesc
	Stubs  []StubDesc
}

func (l LSA) String() string {
	return fmt.Sprintf("LSA origin=%s seq=%d links=%d stubs=%d", l.Origin, l.Seq, len(l.Links), len(l.Stubs))
}

// Iface is an OSPF-enabled interface on the instance.
type Iface struct {
	Name         string
	Cost         uint32
	Prefix       netip.Prefix
	LocalAddr    netip.Addr
	NeighborID   netip.Addr // router ID of the adjacent router
	NeighborName string
	NeighborAddr netip.Addr
	Up           bool
	// Stub marks interfaces with no OSPF neighbor (LANs, loopbacks):
	// advertised as stub networks only.
	Stub bool
}

// Env delivers flooded LSAs to adjacent instances. internal/network
// implements it.
type Env interface {
	// DeliverOSPF ships lsa out of interface ifname toward the neighbor;
	// sendIO is the capture ID of the send event.
	DeliverOSPF(fromRouter, ifname string, lsa LSA, sendIO uint64)
}

// Instance is one router's OSPF process.
type Instance struct {
	name     string
	routerID netip.Addr
	rec      *capture.Recorder
	fib      *fib.Table
	env      Env

	ifaces []*Iface
	lsdb   map[netip.Addr]LSA
	selfSe uint64

	rib    map[netip.Prefix]route.Route
	dist   map[netip.Addr]uint32     // last SPF distances by router ID
	owners map[netip.Addr]netip.Addr // address -> owning router ID

	spfQ *netsim.Debounce[struct{}]
}

// spfDelay debounces SPF runs after LSDB changes.
const spfDelay = 5 * time.Millisecond

// New builds an OSPF instance.
func New(name string, routerID netip.Addr, rec *capture.Recorder, sched *netsim.Scheduler, fibTable *fib.Table, env Env) *Instance {
	o := &Instance{
		name: name, routerID: routerID, rec: rec, fib: fibTable, env: env,
		lsdb:   map[netip.Addr]LSA{},
		rib:    map[netip.Prefix]route.Route{},
		dist:   map[netip.Addr]uint32{},
		owners: map[netip.Addr]netip.Addr{},
	}
	o.spfQ = netsim.NewDebounce(sched, spfDelay, o.runSPF)
	return o
}

// AddIface registers an OSPF interface. Interfaces start in the Up state
// given in the struct.
func (o *Instance) AddIface(i Iface) *Iface {
	cp := i
	o.ifaces = append(o.ifaces, &cp)
	return &cp
}

// Iface returns the named interface, or nil.
func (o *Instance) Iface(name string) *Iface {
	for _, i := range o.ifaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// Start originates the initial LSA and floods it.
func (o *Instance) Start(cause ...uint64) { o.reoriginate(cause) }

// SetIfaceUp changes interface state (hardware status input) and
// re-originates. cause is the link-up/down capture ID.
func (o *Instance) SetIfaceUp(name string, up bool, cause ...uint64) {
	i := o.Iface(name)
	if i == nil || i.Up == up {
		return
	}
	i.Up = up
	o.reoriginate(cause)
}

func (o *Instance) reoriginate(causes []uint64) {
	o.selfSe++
	lsa := LSA{Origin: o.routerID, Seq: o.selfSe}
	// The router's own loopback is always a stub.
	lsa.Stubs = append(lsa.Stubs, StubDesc{Prefix: netip.PrefixFrom(o.routerID, o.routerID.BitLen()), Cost: 0})
	for _, i := range o.ifaces {
		if !i.Up {
			continue
		}
		if i.Stub {
			lsa.Stubs = append(lsa.Stubs, StubDesc{Prefix: i.Prefix, Cost: i.Cost})
			continue
		}
		lsa.Links = append(lsa.Links, LinkDesc{
			NeighborID: i.NeighborID, Cost: i.Cost, Prefix: i.Prefix, LocalAddr: i.LocalAddr,
		})
	}
	o.lsdb[o.routerID] = lsa
	o.flood(lsa, "", causes)
	o.spfQ.Add(struct{}{}, causes)
}

// flood sends lsa to every up, non-stub interface except the one it arrived
// on (exceptIface).
func (o *Instance) flood(lsa LSA, exceptIface string, causes []uint64) {
	for _, i := range o.ifaces {
		if !i.Up || i.Stub || i.Name == exceptIface {
			continue
		}
		io := o.rec.Record(capture.IO{
			Type: capture.SendAdvert, Proto: route.ProtoOSPF,
			Peer: i.NeighborName, PeerAddr: i.NeighborAddr,
			Detail: lsa.String(), Causes: causes,
		})
		o.env.DeliverOSPF(o.name, i.Name, lsa, io.ID)
	}
}

// HandleLSA processes a flooded LSA arriving on ifname. sendIO is the
// sender's send-event ID.
func (o *Instance) HandleLSA(ifname string, lsa LSA, sendIO uint64) {
	i := o.Iface(ifname)
	if i == nil || !i.Up {
		return
	}
	recv := o.rec.Record(capture.IO{
		Type: capture.RecvAdvert, Proto: route.ProtoOSPF,
		Peer: i.NeighborName, PeerAddr: i.NeighborAddr,
		Detail: lsa.String(), Causes: []uint64{sendIO},
	})
	cur, have := o.lsdb[lsa.Origin]
	if have && cur.Seq >= lsa.Seq {
		return // stale or duplicate: do not re-flood
	}
	o.lsdb[lsa.Origin] = lsa
	o.flood(lsa, ifname, []uint64{recv.ID})
	o.spfQ.Add(struct{}{}, []uint64{recv.ID})
}

// runSPF recomputes shortest paths and diffs the resulting routes into the
// RIB and FIB.
func (o *Instance) runSPF(_ struct{}, causes []uint64) {
	dist := map[netip.Addr]uint32{o.routerID: 0}
	// first maps each reachable router to its equal-cost *set* of first-hop
	// interfaces. Ties during relaxation merge sets instead of keeping the
	// incumbent, which is exactly OSPF's ECMP rule.
	first := map[netip.Addr][]*Iface{}
	visited := map[netip.Addr]bool{}
	for {
		var u netip.Addr
		best := uint32(0)
		found := false
		for id, d := range dist {
			if visited[id] {
				continue
			}
			if !found || d < best || (d == best && id.Compare(u) < 0) {
				u, best, found = id, d, true
			}
		}
		if !found {
			break
		}
		visited[u] = true
		ulsa, ok := o.lsdb[u]
		if !ok {
			continue
		}
		for _, ln := range ulsa.Links {
			// Bidirectional check: the neighbor must advertise a link back.
			nlsa, ok := o.lsdb[ln.NeighborID]
			if !ok {
				continue
			}
			back := false
			for _, bl := range nlsa.Links {
				if bl.NeighborID == u && bl.Prefix == ln.Prefix {
					back = true
					break
				}
			}
			if !back || visited[ln.NeighborID] {
				continue
			}
			nd := best + ln.Cost
			cur, seen := dist[ln.NeighborID]
			if seen && cur < nd {
				continue
			}
			var hops []*Iface
			if u == o.routerID {
				// Direct neighbor: first hop is the local interface.
				for _, i := range o.ifaces {
					if i.Up && !i.Stub && i.NeighborID == ln.NeighborID && i.Prefix == ln.Prefix {
						hops = []*Iface{i}
						break
					}
				}
			} else {
				hops = first[u]
			}
			if seen && cur == nd {
				// Equal-cost path: union the first-hop sets (ECMP merge).
				first[ln.NeighborID] = mergeHops(first[ln.NeighborID], hops)
				continue
			}
			dist[ln.NeighborID] = nd
			first[ln.NeighborID] = append([]*Iface(nil), hops...)
		}
	}

	// Build candidate routes: every reachable router's stubs and links.
	newRIB := map[netip.Prefix]route.Route{}
	consider := func(p netip.Prefix, cost uint32, owner netip.Addr) {
		if owner == o.routerID {
			return // connected/local; not an OSPF route
		}
		// Subnets we are directly attached to are connected routes, even
		// when a neighbor also advertises them.
		for _, i := range o.ifaces {
			if i.Up && i.Prefix == p.Masked() {
				return
			}
		}
		hops, ok := first[owner]
		if !ok {
			return
		}
		addrs := make([]netip.Addr, 0, len(hops))
		for _, h := range hops {
			if h != nil {
				addrs = append(addrs, h.NeighborAddr)
			}
		}
		if len(addrs) == 0 {
			return
		}
		prefix := p.Masked()
		cur, exists := newRIB[prefix]
		switch {
		case exists && cost > cur.Metric:
			return
		case exists && cost == cur.Metric:
			// A second owner advertises the prefix at the same distance:
			// union the next-hop sets (ECMP across exits).
			addrs = append(addrs, cur.HopSet()...)
		}
		r := route.Route{Prefix: prefix, Proto: route.ProtoOSPF, Metric: cost, LearnedFrom: owner}
		if exists && cost == cur.Metric {
			r.LearnedFrom = cur.LearnedFrom // first (lowest-ID) owner stays
		}
		newRIB[prefix] = r.WithNextHops(addrs...)
	}
	owners := map[netip.Addr]netip.Addr{}
	ids := make([]netip.Addr, 0, len(dist))
	for id := range dist {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	for _, id := range ids {
		lsa := o.lsdb[id]
		owners[id] = id
		for _, st := range lsa.Stubs {
			consider(st.Prefix, dist[id]+st.Cost, id)
			if st.Prefix.IsSingleIP() {
				owners[st.Prefix.Addr()] = id
			}
		}
		for _, ln := range lsa.Links {
			consider(ln.Prefix, dist[id]+ln.Cost, id)
			owners[ln.LocalAddr] = id
		}
	}
	o.dist = dist
	o.owners = owners

	// Diff against the previous RIB.
	var removed, changed []netip.Prefix
	for p := range o.rib {
		if _, still := newRIB[p]; !still {
			removed = append(removed, p)
		}
	}
	for p, r := range newRIB {
		if cur, ok := o.rib[p]; !ok || cur.Metric != r.Metric || !cur.SameHops(r) {
			changed = append(changed, p)
		}
	}
	slices.SortFunc(removed, route.ComparePrefix)
	slices.SortFunc(changed, route.ComparePrefix)
	for _, p := range removed {
		old := o.rib[p]
		delete(o.rib, p)
		io := o.rec.Record(capture.IO{
			Type: capture.RIBRemove, Proto: route.ProtoOSPF, Prefix: p,
			NextHop: old.NextHop, Causes: causes,
		})
		o.fib.Withdraw(route.ProtoOSPF, p, io.ID)
	}
	for _, p := range changed {
		r := newRIB[p]
		o.rib[p] = r
		io := o.rec.Record(capture.IO{
			Type: capture.RIBInstall, Proto: route.ProtoOSPF, Prefix: p,
			NextHop: r.NextHop, NextHops: r.NextHops, Causes: causes,
		})
		o.fib.Offer(r, io.ID)
	}
}

// mergeHops unions two first-hop interface sets without aliasing either.
func mergeHops(a, b []*Iface) []*Iface {
	out := append([]*Iface(nil), a...)
	for _, h := range b {
		dup := false
		for _, e := range out {
			if e == h {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	return out
}

// Metric reports the IGP cost to the router owning addr, for BGP next-hop
// ranking. It resolves loopbacks and interface addresses advertised in LSAs.
func (o *Instance) Metric(addr netip.Addr) (uint32, bool) {
	owner, ok := o.owners[addr]
	if !ok {
		return 0, false
	}
	d, ok := o.dist[owner]
	return d, ok
}
