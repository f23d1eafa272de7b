// Package network assembles the substrates into a runnable routed network:
// it binds topology, per-router configuration, the BGP/OSPF/RIP/EIGRP
// implementations, FIB tables, and the capture log to one deterministic
// simulation. It also implements the operator-facing actions the paper's
// scenarios need — configuration changes (committed to the versioned store
// and followed by BGP soft reconfiguration) and link failures (hardware
// status inputs).
package network

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"hbverify/internal/bgp"
	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/eigrp"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/ospf"
	"hbverify/internal/rip"
	"hbverify/internal/route"
	"hbverify/internal/topology"
)

// Router bundles one router's protocol instances and capture recorder.
type Router struct {
	Name  string
	Topo  *topology.Router
	Cfg   *config.Router
	Rec   *capture.Recorder
	FIB   *fib.Table
	BGP   *bgp.Speaker
	OSPF  *ospf.Instance
	RIP   *rip.Instance
	EIGRP *eigrp.Instance

	net *Network
	// appliedStatics tracks the static routes currently offered to the
	// FIB, so config changes can be diffed.
	appliedStatics []config.StaticRoute
}

// Network is the assembled simulation.
type Network struct {
	Topo  *topology.Topology
	Sched *netsim.Scheduler
	Log   *capture.Log
	Store *config.Store

	// BGPSessionJitter adds uniform random delay to BGP messages.
	BGPSessionJitter time.Duration
	// SoftReconfigDelay is the lag between a configuration change and the
	// BGP soft reconfiguration it triggers (§7 measured ~25 s on Cisco).
	SoftReconfigDelay time.Duration

	routers      map[string]*Router
	configEvents map[uint64]ConfigRef
	started      bool
	onLinkChange []func(a, b string, up bool)
	// delivered holds, per channel, when its latest message is delivered.
	delivered map[channel]netsim.VirtualTime
}

// channel is one direction of a link (router, interface) or one BGP session
// (local, peer address): what delivers its messages in order.
type channel struct {
	router, iface string
	local, peer   netip.Addr
}

// fifo turns a message's drawn delay into its delivery delay on ch: no
// earlier than the message before it on ch, so sessions and links are FIFO,
// as the TCP and the wire they model are. Jitter still reorders messages
// across channels.
func (n *Network) fifo(ch channel, delay time.Duration) time.Duration {
	at := max(n.Sched.Now().Add(delay), n.delivered[ch])
	n.delivered[ch] = at
	return at.Sub(n.Sched.Now())
}

// bgpSessionDelay is the one-way latency for BGP messages between routers
// that are not directly connected (loopback iBGP sessions). The paper's
// feasibility study measured ~8 ms propagation.
const bgpSessionDelay = 8 * time.Millisecond

// ConfigRef ties a config-change capture event to the version it created
// in the store — the link the repair engine follows to roll back a root
// cause.
type ConfigRef struct {
	Router  string
	Version int
}

// New creates an empty network on a fresh scheduler seeded with seed.
func New(seed int64) *Network {
	return &Network{
		Topo:              topology.New(),
		Sched:             netsim.NewScheduler(seed),
		Log:               capture.NewLog(),
		Store:             config.NewStore(),
		SoftReconfigDelay: 250 * time.Millisecond,
		routers:           map[string]*Router{},
		configEvents:      map[uint64]ConfigRef{},
		delivered:         map[channel]netsim.VirtualTime{},
	}
}

// AddRouter creates a router with an optional wall-clock skew/jitter model
// (zero values = perfect clock).
func (n *Network) AddRouter(name, loopback string, skew, jitter time.Duration) (*Router, error) {
	lb, err := netip.ParseAddr(loopback)
	if err != nil {
		return nil, fmt.Errorf("network: bad loopback for %s: %w", name, err)
	}
	tr, err := n.Topo.AddRouter(name, lb)
	if err != nil {
		return nil, err
	}
	var clock *netsim.ClockModel
	if skew != 0 || jitter != 0 {
		clock = netsim.NewClockModel(skew, jitter, int64(len(n.routers))+n.Sched.Rand().Int63n(1<<30))
	}
	rec := capture.NewRecorder(n.Log, name, n.Sched, clock)
	r := &Router{
		Name: name, Topo: tr,
		Cfg: &config.Router{Name: name},
		Rec: rec, FIB: fib.NewTable(rec),
		net: n,
	}
	n.routers[name] = r
	return r, nil
}

// Router returns the named router, or nil.
func (n *Network) Router(name string) *Router { return n.routers[name] }

// Routers returns all routers sorted by name.
func (n *Network) Routers() []*Router {
	out := make([]*Router, 0, len(n.routers))
	for _, r := range n.routers {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Configure replaces a router's configuration before Start.
func (n *Network) Configure(name string, cfg *config.Router) error {
	r := n.routers[name]
	if r == nil {
		return fmt.Errorf("network: unknown router %q", name)
	}
	cfg.Name = name
	r.Cfg = cfg
	return nil
}

// routerEnv adapts one router to the protocol Env interfaces.
type routerEnv struct{ r *Router }

func (e routerEnv) DeliverBGP(local, peer netip.Addr, msg bgp.Message, sendIO uint64) {
	e.r.net.deliverBGP(local, peer, msg, sendIO)
}

func (e routerEnv) IGPMetric(nh netip.Addr) (uint32, bool) {
	r := e.r
	// Directly connected addresses resolve at cost 0.
	for _, i := range r.Topo.Interfaces() {
		if i.Link != nil && !i.Link.Up() {
			continue
		}
		if i.Prefix.Contains(nh) {
			return 0, true
		}
	}
	if r.OSPF != nil {
		return r.OSPF.Metric(nh)
	}
	return 0, false
}

func (e routerEnv) DeliverOSPF(fromRouter, ifname string, lsa ospf.LSA, sendIO uint64) {
	e.r.net.deliverIface(fromRouter, ifname, func(peer *Router, peerIface string) {
		if peer.OSPF != nil {
			peer.OSPF.HandleLSA(peerIface, lsa, sendIO)
		}
	})
}

func (e routerEnv) DeliverRIP(fromRouter, ifname string, msg rip.Message, sendIO uint64) {
	from := e.r.Topo.Interface(ifname)
	if from == nil {
		return
	}
	addr := from.Addr
	e.r.net.deliverIface(fromRouter, ifname, func(peer *Router, _ string) {
		if peer.RIP != nil {
			peer.RIP.HandleUpdate(addr, msg, sendIO)
		}
	})
}

func (e routerEnv) DeliverEIGRP(fromRouter, ifname string, msg eigrp.Message, sendIO uint64) {
	from := e.r.Topo.Interface(ifname)
	if from == nil {
		return
	}
	addr := from.Addr
	e.r.net.deliverIface(fromRouter, ifname, func(peer *Router, _ string) {
		if peer.EIGRP != nil {
			peer.EIGRP.HandleUpdate(addr, msg, sendIO)
		}
	})
}

// deliverIface schedules delivery over the link attached to (router,
// ifname). Messages on down links are dropped.
func (n *Network) deliverIface(fromRouter, ifname string, deliver func(peer *Router, peerIface string)) {
	r := n.routers[fromRouter]
	if r == nil {
		return
	}
	iface := r.Topo.Interface(ifname)
	if iface == nil || iface.Link == nil || !iface.Link.Up() {
		return
	}
	peerIface := iface.Peer()
	peer := n.routers[peerIface.Router]
	if peer == nil {
		return
	}
	delay := n.fifo(channel{router: fromRouter, iface: ifname}, n.Sched.Jitter(iface.Link.Delay, iface.Link.Jitter))
	link := iface.Link
	pi := peerIface.Name
	n.Sched.After(delay, func() {
		if !link.Up() {
			return // went down in flight
		}
		deliver(peer, pi)
	})
}

// deliverBGP ships a BGP message to whichever router owns the peer address.
// Directly connected sessions use the link latency and die with the link;
// loopback sessions use bgpSessionDelay.
func (n *Network) deliverBGP(local, peer netip.Addr, msg bgp.Message, sendIO uint64) {
	var delay time.Duration
	link := n.Topo.LinkByEndpoints(local, peer)
	if link != nil {
		if !link.Up() {
			return
		}
		delay = n.Sched.Jitter(link.Delay, link.Jitter)
	} else {
		delay = n.Sched.Jitter(bgpSessionDelay, n.BGPSessionJitter)
	}
	owner := n.Topo.OwnerOf(peer)
	dst := n.routers[owner]
	if dst == nil || dst.BGP == nil {
		return
	}
	n.Sched.After(n.fifo(channel{local: local, peer: peer}, delay), func() {
		if link != nil && !link.Up() {
			return
		}
		dst.BGP.HandleUpdate(local, msg, sendIO)
	})
}

// Build instantiates protocol processes from the current configurations.
// Call after all routers, links, and Configure calls.
func (n *Network) Build() error {
	for _, r := range n.Routers() {
		env := routerEnv{r}
		cfg := r.Cfg
		if cfg.BGP != nil {
			r.BGP = bgp.New(r.Name, r.Topo.Loopback, cfg.BGP, r.Cfg.Policy,
				r.Rec, n.Sched, r.FIB, env)
			for _, nb := range cfg.BGP.Neighbors {
				ownerName := n.Topo.OwnerOf(nb.Addr)
				if ownerName == "" {
					return fmt.Errorf("network: %s: BGP neighbor %v not found", r.Name, nb.Addr)
				}
				typ := route.PeerIBGP
				if nb.RemoteAS != cfg.BGP.ASN {
					typ = route.PeerEBGP
				}
				local := r.Topo.Loopback
				// eBGP over a shared subnet peers with interface addresses.
				if i := n.ifaceOnSharedSubnet(r, nb.Addr); i != nil {
					local = i.Addr
				}
				r.BGP.AddSession(bgp.Session{
					PeerName: ownerName, PeerAddr: nb.Addr, LocalAddr: local,
					PeerAS: nb.RemoteAS, Type: typ, AddPath: nb.AddPath, RRClient: nb.RRClient,
					LocalPref: nb.LocalPref, ImportPolicy: nb.ImportPolicy, ExportPolicy: nb.ExportPolicy,
				})
			}
		}
		if cfg.OSPF.Enabled {
			r.OSPF = ospf.New(r.Name, r.Topo.Loopback, r.Rec, n.Sched, r.FIB, env)
			for _, i := range r.Topo.Interfaces() {
				if !ifaceSelected(cfg.OSPF.Interfaces, i.Name) {
					continue
				}
				oi := ospf.Iface{
					Name: i.Name, Cost: 1, Prefix: i.Prefix, LocalAddr: i.Addr, Up: true,
				}
				if i.Link != nil {
					peer := n.routers[i.Peer().Router]
					if peer != nil && peer.Cfg.OSPF.Enabled && ifaceSelected(peer.Cfg.OSPF.Interfaces, i.Peer().Name) {
						oi.Cost = i.Link.Cost
						oi.NeighborID = peer.Topo.Loopback
						oi.NeighborName = peer.Name
						oi.NeighborAddr = i.Peer().Addr
						oi.Up = i.Link.Up()
					} else {
						oi.Stub = true
					}
				} else {
					oi.Stub = true
				}
				r.OSPF.AddIface(oi)
			}
		}
		if cfg.RIP.Enabled {
			r.RIP = rip.New(r.Name, r.Rec, n.Sched, r.FIB, env)
			for _, i := range r.Topo.Interfaces() {
				if !ifaceSelected(cfg.RIP.Interfaces, i.Name) || i.Link == nil {
					continue
				}
				peer := n.routers[i.Peer().Router]
				if peer == nil || !peer.Cfg.RIP.Enabled {
					continue
				}
				r.RIP.AddNeighbor(rip.Neighbor{
					Name: peer.Name, Addr: i.Peer().Addr, LocalAddr: i.Addr,
					Iface: i.Name, Up: i.Link.Up(),
				})
			}
		}
		if cfg.EIGRP.Enabled {
			r.EIGRP = eigrp.New(r.Name, r.Rec, n.Sched, r.FIB, env)
			for _, i := range r.Topo.Interfaces() {
				if !ifaceSelected(cfg.EIGRP.Interfaces, i.Name) || i.Link == nil {
					continue
				}
				peer := n.routers[i.Peer().Router]
				if peer == nil || !peer.Cfg.EIGRP.Enabled {
					continue
				}
				r.EIGRP.AddNeighbor(eigrp.Neighbor{
					Name: peer.Name, Addr: i.Peer().Addr, LocalAddr: i.Addr,
					Iface: i.Name, Cost: i.Link.Cost, Up: i.Link.Up(),
				})
			}
		}
	}
	return nil
}

func (n *Network) ifaceOnSharedSubnet(r *Router, peer netip.Addr) *topology.Interface {
	for _, i := range r.Topo.Interfaces() {
		if i.Prefix.Contains(peer) && i.Addr != peer {
			return i
		}
	}
	return nil
}

func ifaceSelected(list []string, name string) bool {
	if len(list) == 0 {
		return true
	}
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

// Start commits the initial configurations, installs connected and static
// routes, and starts every protocol. Run the scheduler afterwards to
// converge.
func (n *Network) Start() {
	if n.started {
		return
	}
	n.started = true
	for _, r := range n.Routers() {
		v := n.Store.Commit(r.Cfg, "initial configuration")
		cc := r.Rec.Record(capture.IO{
			Type: capture.ConfigChange, Detail: "initial configuration: " + r.Cfg.Summary(),
		})
		n.configEvents[cc.ID] = ConfigRef{Router: r.Name, Version: v}
		cause := cc.ID
		// Connected routes. A link built down is logged down at both
		// ends, so a replay of the log knows it is.
		for _, i := range r.Topo.Interfaces() {
			if i.Link != nil && !i.Link.Up() {
				r.Rec.Record(capture.IO{Type: capture.LinkDown, Detail: i.Name, Peer: i.Peer().Router})
				continue
			}
			r.FIB.Offer(route.Route{Prefix: i.Prefix, Proto: route.ProtoConnected}, cause)
		}
		// Statics.
		for _, st := range r.Cfg.Statics {
			r.FIB.Offer(staticRoute(st), cause)
		}
		r.appliedStatics = append([]config.StaticRoute(nil), r.Cfg.Statics...)
		if r.OSPF != nil {
			r.OSPF.Start(cause)
		}
		if r.RIP != nil {
			for _, p := range connectedPrefixes(r) {
				r.RIP.Originate(p, cause)
			}
		}
		if r.EIGRP != nil {
			for _, p := range connectedPrefixes(r) {
				r.EIGRP.Originate(p, cause)
			}
		}
		if r.BGP != nil {
			r.BGP.Start(cause)
		}
	}
	// Bring BGP sessions up after all speakers exist. Sessions riding a
	// down link stay down; SetLinkUp restores them later.
	for _, r := range n.Routers() {
		if r.BGP == nil {
			continue
		}
		for _, sess := range r.BGP.Sessions() {
			if l := n.Topo.LinkByEndpoints(sess.LocalAddr, sess.PeerAddr); l != nil && !l.Up() {
				continue
			}
			r.BGP.PeerUp(sess.PeerAddr)
		}
	}
}

// connectedPrefixes returns the subnets of up interfaces, deduplicated and
// sorted so protocol origination order (and thus the capture log) is
// deterministic.
func connectedPrefixes(r *Router) []netip.Prefix {
	seen := map[netip.Prefix]bool{}
	out := make([]netip.Prefix, 0, 4)
	for _, i := range r.Topo.Interfaces() {
		if i.Link != nil && !i.Link.Up() {
			continue
		}
		if !seen[i.Prefix] {
			seen[i.Prefix] = true
			out = append(out, i.Prefix)
		}
	}
	slices.SortFunc(out, route.ComparePrefix)
	return out
}

// Run converges the network (drains the event queue) with an event budget.
func (n *Network) Run() error {
	if n.Sched.MaxEvents == 0 {
		n.Sched.MaxEvents = 5_000_000
	}
	return n.Sched.Run()
}

// UpdateConfig applies an operator configuration change to a running
// router: the mutation is committed to the versioned store, a config-change
// input is recorded, and — when the router runs BGP — a soft
// reconfiguration follows after SoftReconfigDelay, exactly the sequence the
// paper's feasibility study observed. It returns the config-change I/O.
func (n *Network) UpdateConfig(name, comment string, mutate func(*config.Router)) (capture.IO, error) {
	r := n.routers[name]
	if r == nil {
		return capture.IO{}, fmt.Errorf("network: unknown router %q", name)
	}
	mutate(r.Cfg)
	v := n.Store.Commit(r.Cfg, comment)
	io := r.Rec.Record(capture.IO{Type: capture.ConfigChange, Detail: comment})
	n.configEvents[io.ID] = ConfigRef{Router: name, Version: v}
	n.applyConfig(r, io.ID)
	return io, nil
}

// ConfigEventRef resolves a config-change capture ID to the committed
// version it produced.
func (n *Network) ConfigEventRef(id uint64) (ConfigRef, bool) {
	ref, ok := n.configEvents[id]
	return ref, ok
}

// RollbackConfig reverts a router to a stored configuration version (the
// paper's repair action) and triggers reconfiguration.
func (n *Network) RollbackConfig(name string, version int, cause ...uint64) (capture.IO, error) {
	r := n.routers[name]
	if r == nil {
		return capture.IO{}, fmt.Errorf("network: unknown router %q", name)
	}
	head, err := n.Store.Rollback(name, version)
	if err != nil {
		return capture.IO{}, err
	}
	*r.Cfg = *head.Config.Clone()
	io := r.Rec.Record(capture.IO{
		Type: capture.ConfigChange, Detail: fmt.Sprintf("rollback to v%d", version), Causes: cause,
	})
	n.configEvents[io.ID] = ConfigRef{Router: name, Version: head.Num}
	n.applyConfig(r, io.ID)
	return io, nil
}

// applyConfig pushes live-updatable config into the protocol instances and
// schedules BGP soft reconfiguration.
func (n *Network) applyConfig(r *Router, cause uint64) {
	n.syncStatics(r, cause)
	if r.BGP == nil || r.Cfg.BGP == nil {
		return
	}
	r.BGP.SetConfig(r.Cfg.BGP)
	for _, nb := range r.Cfg.BGP.Neighbors {
		if sess := r.BGP.Session(nb.Addr); sess != nil {
			sess.LocalPref = nb.LocalPref
			sess.ImportPolicy = nb.ImportPolicy
			sess.ExportPolicy = nb.ExportPolicy
			sess.AddPath = nb.AddPath
		}
	}
	n.Sched.After(n.SoftReconfigDelay, func() {
		r.BGP.SoftReconfig(cause)
	})
}

// syncStatics diffs the configured static routes against the applied set,
// withdrawing removed statics and offering new or changed ones.
func (n *Network) syncStatics(r *Router, cause uint64) {
	desired := map[netip.Prefix]config.StaticRoute{}
	for _, st := range r.Cfg.Statics {
		desired[st.Prefix.Masked()] = st
	}
	for _, old := range r.appliedStatics {
		if _, still := desired[old.Prefix.Masked()]; !still {
			r.FIB.Withdraw(route.ProtoStatic, old.Prefix, cause)
		}
	}
	for _, st := range r.Cfg.Statics {
		r.FIB.Offer(staticRoute(st), cause)
	}
	r.appliedStatics = append(r.appliedStatics[:0], r.Cfg.Statics...)
}

// staticRoute builds the FIB route for a configured static, spreading an
// ECMP next-hop set when one is present.
func staticRoute(st config.StaticRoute) route.Route {
	rt := route.Route{Prefix: st.Prefix, NextHop: st.NextHop, Proto: route.ProtoStatic}
	if len(st.NextHops) > 0 {
		hops := append([]netip.Addr(nil), st.NextHops...)
		if st.NextHop.IsValid() {
			hops = append(hops, st.NextHop)
		}
		rt = rt.WithNextHops(hops...)
	}
	return rt
}

// OnLinkChange registers a listener invoked whenever a link actually flips
// state (SetLinkUp with a real transition), with the two endpoint router
// names and the new status. Link state feeds the data-plane walker directly
// — interface-up checks, static routes riding a dead link — without
// necessarily producing FIB updates, so walk caches must hear about flips
// through this hook, not just through fib.Table.OnChange.
func (n *Network) OnLinkChange(fn func(a, b string, up bool)) {
	n.onLinkChange = append(n.onLinkChange, fn)
}

// SetLinkUp changes a link's status, recording hardware-status inputs at
// both ends and notifying the protocols. It returns the recorded I/Os.
func (n *Network) SetLinkUp(a, b string, up bool) ([]capture.IO, error) {
	l := n.Topo.LinkBetween(a, b)
	if l == nil {
		return nil, fmt.Errorf("network: no link %s-%s", a, b)
	}
	if l.Up() == up {
		return nil, nil
	}
	l.SetUp(up)
	typ := capture.LinkDown
	if up {
		typ = capture.LinkUp
	}
	var ios []capture.IO
	for _, end := range []*topology.Interface{l.A, l.B} {
		r := n.routers[end.Router]
		io := r.Rec.Record(capture.IO{Type: typ, Detail: end.Name, Peer: end.Peer().Router})
		ios = append(ios, io)
		cause := io.ID
		if up {
			r.FIB.Offer(route.Route{Prefix: end.Prefix, Proto: route.ProtoConnected}, cause)
		} else {
			r.FIB.Withdraw(route.ProtoConnected, end.Prefix, cause)
		}
		if r.OSPF != nil {
			r.OSPF.SetIfaceUp(end.Name, up, cause)
		}
		if r.RIP != nil {
			if up {
				r.RIP.Originate(end.Prefix, cause)
				r.RIP.NeighborUp(end.Peer().Addr, cause)
			} else {
				r.RIP.NeighborDown(end.Peer().Addr, cause)
			}
		}
		if r.EIGRP != nil {
			if up {
				r.EIGRP.Originate(end.Prefix, cause)
				r.EIGRP.NeighborUp(end.Peer().Addr, cause)
			} else {
				r.EIGRP.NeighborDown(end.Peer().Addr, cause)
			}
		}
		if r.BGP != nil {
			// eBGP sessions over the failed subnet die with it.
			for _, sess := range r.BGP.Sessions() {
				if end.Prefix.Contains(sess.PeerAddr) && end.Prefix.Contains(sess.LocalAddr) {
					if up {
						r.BGP.PeerUp(sess.PeerAddr, cause)
					} else {
						r.BGP.PeerDown(sess.PeerAddr, cause)
					}
				}
			}
		}
	}
	for _, fn := range n.onLinkChange {
		fn(l.A.Router, l.B.Router, up)
	}
	return ios, nil
}

// ResetBGPSession hard-clears the BGP session between routers a and b at
// both ends (the operator's "clear ip bgp"): routes learned over the
// session are purged immediately, and the session re-establishes after
// bgpSessionDelay with each side re-advertising its table. Resetting both
// ends is essential — a one-sided reset would lose the peer's routes
// forever, since BGP only re-advertises on session establishment.
func (n *Network) ResetBGPSession(a, b string) error {
	ra, rb := n.routers[a], n.routers[b]
	if ra == nil || rb == nil || ra.BGP == nil || rb.BGP == nil {
		return fmt.Errorf("network: no BGP speakers for session %s-%s", a, b)
	}
	var sa, sb *bgp.Session
	for _, s := range ra.BGP.Sessions() {
		if s.PeerName == b {
			sa = s
			break
		}
	}
	for _, s := range rb.BGP.Sessions() {
		if s.PeerName == a {
			sb = s
			break
		}
	}
	if sa == nil || sb == nil {
		return fmt.Errorf("network: no BGP session %s-%s", a, b)
	}
	ra.BGP.PeerDown(sa.PeerAddr)
	rb.BGP.PeerDown(sb.PeerAddr)
	n.Sched.After(bgpSessionDelay, func() {
		ra.BGP.PeerUp(sa.PeerAddr)
		rb.BGP.PeerUp(sb.PeerAddr)
	})
	return nil
}

// Live returns the network's live forwarding state: every router's FIB
// table, read where it lives, so it sees each install and withdraw the
// moment it lands, and its interfaces with their link state now.
func (n *Network) Live() *dataplane.Live {
	tables := make(map[string]*fib.Table, len(n.routers))
	for name, r := range n.routers {
		tables[name] = r.FIB
	}
	return dataplane.NewLive(n.Topo, tables)
}
