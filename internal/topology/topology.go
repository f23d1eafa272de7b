// Package topology models the physical network: routers, interfaces,
// point-to-point links, and link status. It is purely structural; protocol
// state lives in the protocol packages and is assembled by internal/network.
package topology

import (
	"fmt"
	"net/netip"
	"sort"
	"sync/atomic"
	"time"
)

// Interface is one end of a link (or a stub LAN attachment). Addr is the
// interface address; Prefix is the connected subnet it implies.
type Interface struct {
	Router string
	Name   string
	Addr   netip.Addr
	Prefix netip.Prefix
	// Link is the link this interface attaches to, nil for stub interfaces
	// (e.g. a LAN with no modelled peer).
	Link *Link
}

// Peer returns the interface on the other end of the attached link, or nil
// for stub interfaces.
func (i *Interface) Peer() *Interface {
	if i.Link == nil {
		return nil
	}
	if i.Link.A == i {
		return i.Link.B
	}
	return i.Link.A
}

// ID returns the canonical "router:ifname" identifier.
func (i *Interface) ID() string { return i.Router + ":" + i.Name }

// Link is a point-to-point connection between two interfaces.
type Link struct {
	A, B *Interface
	// Delay is the one-way propagation delay applied to control messages.
	Delay time.Duration
	// Jitter, when nonzero, adds uniform random delay in [0, Jitter).
	Jitter time.Duration
	// Cost is the IGP cost advertised for this link (both directions).
	Cost uint32
	up   atomic.Bool
	gen  *atomic.Uint64 // the owning topology's generation
}

// Up reports link status.
func (l *Link) Up() bool { return l.up.Load() }

// SetUp changes link status and advances the topology's generation; the
// network layer is responsible for notifying attached routers.
func (l *Link) SetUp(up bool) {
	l.up.Store(up)
	l.gen.Add(1)
}

// ID returns a stable "a:if<->b:if" identifier with endpoints in router-name
// order, so both directions map to the same string.
func (l *Link) ID() string {
	a, b := l.A.ID(), l.B.ID()
	if a > b {
		a, b = b, a
	}
	return a + "<->" + b
}

// Router is a named node with interfaces. LoopbackAddr doubles as the BGP
// router ID.
type Router struct {
	Name     string
	Loopback netip.Addr
	ifaces   map[string]*Interface
}

// Interfaces returns the router's interfaces sorted by name.
func (r *Router) Interfaces() []*Interface {
	out := make([]*Interface, 0, len(r.ifaces))
	for _, i := range r.ifaces {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Interface returns the named interface, or nil.
func (r *Router) Interface(name string) *Interface { return r.ifaces[name] }

// InterfaceByAddr returns the interface holding addr, or nil.
func (r *Router) InterfaceByAddr(addr netip.Addr) *Interface {
	for _, i := range r.ifaces {
		if i.Addr == addr {
			return i
		}
	}
	return nil
}

// ConnectedPrefixes returns the subnets the router is directly attached to,
// sorted, with the delivering interface name.
func (r *Router) ConnectedPrefixes() map[netip.Prefix]string {
	out := make(map[netip.Prefix]string, len(r.ifaces))
	for _, i := range r.ifaces {
		if i.Link != nil && !i.Link.Up() {
			continue
		}
		out[i.Prefix] = i.Name
	}
	return out
}

// Topology is a collection of routers and links. Address and endpoint
// indexes are maintained on mutation so the per-message hot paths in
// internal/network (owner lookup, link-by-endpoints) stay O(1) at
// hundreds of routers.
type Topology struct {
	routers map[string]*Router
	links   []*Link
	// loopbacks maps loopback address -> router.
	loopbacks map[netip.Addr]*Router
	// byAddr maps interface address -> interface. On the (unsupported but
	// unchecked) chance two routers reuse an address, the lexicographically
	// smallest router name wins, matching the old sorted-scan semantics.
	byAddr map[netip.Addr]*Interface
	// linkByEnds maps an unordered endpoint-address pair -> link.
	linkByEnds map[[2]netip.Addr]*Link
	// linkByRouters maps an unordered router-name pair -> first link added.
	linkByRouters map[[2]string]*Link
	// gen counts structural and link-state changes: AddRouter, AddLink,
	// AddStub and Link.SetUp each advance it.
	gen atomic.Uint64
}

// Generation reports how many changes the topology has seen. A reader that
// derived something from a router's interfaces or link states may keep it
// for as long as the generation it read first has not moved.
func (t *Topology) Generation() uint64 { return t.gen.Load() }

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		routers:       map[string]*Router{},
		loopbacks:     map[netip.Addr]*Router{},
		byAddr:        map[netip.Addr]*Interface{},
		linkByEnds:    map[[2]netip.Addr]*Link{},
		linkByRouters: map[[2]string]*Link{},
	}
}

func (t *Topology) indexIface(i *Interface) {
	if prev, ok := t.byAddr[i.Addr]; ok && prev.Router <= i.Router {
		return
	}
	t.byAddr[i.Addr] = i
}

func addrPair(a, b netip.Addr) [2]netip.Addr {
	if b.Compare(a) < 0 {
		a, b = b, a
	}
	return [2]netip.Addr{a, b}
}

func namePair(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// AddRouter creates a router. Loopback must be unique; it is used as the
// router ID everywhere.
func (t *Topology) AddRouter(name string, loopback netip.Addr) (*Router, error) {
	if _, dup := t.routers[name]; dup {
		return nil, fmt.Errorf("topology: duplicate router %q", name)
	}
	if r, dup := t.loopbacks[loopback]; dup {
		return nil, fmt.Errorf("topology: loopback %v already used by %q", loopback, r.Name)
	}
	r := &Router{Name: name, Loopback: loopback, ifaces: map[string]*Interface{}}
	t.routers[name] = r
	t.loopbacks[loopback] = r
	t.gen.Add(1)
	return r, nil
}

// Router returns the named router, or nil.
func (t *Topology) Router(name string) *Router { return t.routers[name] }

// Routers returns all routers sorted by name.
func (t *Topology) Routers() []*Router {
	out := make([]*Router, 0, len(t.routers))
	for _, r := range t.routers {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Links returns all links in creation order.
func (t *Topology) Links() []*Link { return t.links }

// LinkSpec configures AddLink.
type LinkSpec struct {
	ARouter, AIface string
	AAddr           netip.Addr
	BRouter, BIface string
	BAddr           netip.Addr
	Prefix          netip.Prefix
	Delay           time.Duration
	Jitter          time.Duration
	Cost            uint32
}

// AddLink connects two routers with a point-to-point subnet. Both addresses
// must fall in Prefix. The link starts up. Cost defaults to 1, Delay to 1ms.
func (t *Topology) AddLink(spec LinkSpec) (*Link, error) {
	ra, rb := t.routers[spec.ARouter], t.routers[spec.BRouter]
	if ra == nil || rb == nil {
		return nil, fmt.Errorf("topology: unknown router in link %s-%s", spec.ARouter, spec.BRouter)
	}
	if !spec.Prefix.Contains(spec.AAddr) || !spec.Prefix.Contains(spec.BAddr) {
		return nil, fmt.Errorf("topology: addresses %v,%v outside %v", spec.AAddr, spec.BAddr, spec.Prefix)
	}
	if spec.AAddr == spec.BAddr {
		return nil, fmt.Errorf("topology: identical endpoint addresses %v", spec.AAddr)
	}
	for _, side := range []struct {
		r  *Router
		nm string
	}{{ra, spec.AIface}, {rb, spec.BIface}} {
		if _, dup := side.r.ifaces[side.nm]; dup {
			return nil, fmt.Errorf("topology: duplicate interface %s:%s", side.r.Name, side.nm)
		}
	}
	if spec.Cost == 0 {
		spec.Cost = 1
	}
	if spec.Delay == 0 {
		spec.Delay = time.Millisecond
	}
	ia := &Interface{Router: ra.Name, Name: spec.AIface, Addr: spec.AAddr, Prefix: spec.Prefix.Masked()}
	ib := &Interface{Router: rb.Name, Name: spec.BIface, Addr: spec.BAddr, Prefix: spec.Prefix.Masked()}
	l := &Link{A: ia, B: ib, Delay: spec.Delay, Jitter: spec.Jitter, Cost: spec.Cost, gen: &t.gen}
	l.up.Store(true)
	ia.Link, ib.Link = l, l
	ra.ifaces[spec.AIface] = ia
	rb.ifaces[spec.BIface] = ib
	t.links = append(t.links, l)
	t.indexIface(ia)
	t.indexIface(ib)
	t.linkByEnds[addrPair(ia.Addr, ib.Addr)] = l
	if np := namePair(ra.Name, rb.Name); t.linkByRouters[np] == nil {
		t.linkByRouters[np] = l // first link wins for parallel links
	}
	t.gen.Add(1)
	return l, nil
}

// AddStub attaches a stub subnet (e.g. an external LAN or customer prefix)
// to a router. Stub interfaces have no peer and never go down.
func (t *Topology) AddStub(router, iface string, addr netip.Addr, prefix netip.Prefix) (*Interface, error) {
	r := t.routers[router]
	if r == nil {
		return nil, fmt.Errorf("topology: unknown router %q", router)
	}
	if _, dup := r.ifaces[iface]; dup {
		return nil, fmt.Errorf("topology: duplicate interface %s:%s", router, iface)
	}
	if !prefix.Contains(addr) {
		return nil, fmt.Errorf("topology: %v outside %v", addr, prefix)
	}
	i := &Interface{Router: router, Name: iface, Addr: addr, Prefix: prefix.Masked()}
	r.ifaces[iface] = i
	t.indexIface(i)
	t.gen.Add(1)
	return i, nil
}

// LinkBetween returns the link connecting two routers, or nil. With multiple
// parallel links it returns the first added.
func (t *Topology) LinkBetween(a, b string) *Link {
	return t.linkByRouters[namePair(a, b)]
}

// LinkByEndpoints returns the link whose interface addresses are exactly
// {a, b} (in either order), or nil.
func (t *Topology) LinkByEndpoints(a, b netip.Addr) *Link {
	return t.linkByEnds[addrPair(a, b)]
}

// Neighbors returns the names of routers adjacent to r over up links,
// sorted and deduplicated.
func (t *Topology) Neighbors(r string) []string {
	seen := map[string]bool{}
	for _, l := range t.links {
		if !l.Up() {
			continue
		}
		switch r {
		case l.A.Router:
			seen[l.B.Router] = true
		case l.B.Router:
			seen[l.A.Router] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// OwnerOf returns the router whose loopback or interface holds addr, or "".
func (t *Topology) OwnerOf(addr netip.Addr) string {
	if r, ok := t.loopbacks[addr]; ok {
		return r.Name
	}
	if i, ok := t.byAddr[addr]; ok {
		return i.Router
	}
	return ""
}
