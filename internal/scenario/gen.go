// World generation: seeded random topologies (ring / mesh / fat-tree) with
// one of four protocol mixes, built on the same substrate as the
// hand-written scenarios in internal/network.

package scenario

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"hbverify/internal/config"
	"hbverify/internal/network"
)

// Shapes are the supported topology shapes. The first three are the
// seed-sized classics; "fattree-k4" and "isp-rr" wire the scale builders
// from internal/network (a 20-router 4-ary fat-tree, an 8-router BGP
// route-reflector hierarchy) into the harness as explicit smoke-tier
// shapes.
var Shapes = []string{"ring", "mesh", "fattree", "fattree-k4", "isp-rr"}

// randomShapes is the pool Normalize draws from when Config.Shape is
// unset. It is pinned to the original three shapes so every existing
// (seed, schedule) artifact replays identically; the scale shapes are
// opt-in via an explicit Shape.
var randomShapes = Shapes[:3]

// Mixes are the supported protocol mixes. "ospf+bgp" is the paper-style
// arrangement: an OSPF underlay, an iBGP full mesh, and two external
// providers; the others are pure-IGP networks with the destination
// prefixes attached as stub LANs.
var Mixes = []string{"ospf+bgp", "ospf", "rip", "eigrp"}

// PrefixP and PrefixQ are the destination prefixes every generated
// scenario verifies.
var (
	PrefixP = netip.MustParsePrefix("203.0.113.0/24")
	PrefixQ = netip.MustParsePrefix("198.51.100.0/24")
)

// world carries the generated network plus the handles the schedule
// generator and the oracles need.
type world struct {
	net       *network.Network
	internals []string
	external  map[string]bool
	// links lists the internal-internal links eligible for flap churn.
	links [][2]string
	// ibgp lists iBGP session pairs eligible for resets.
	ibgp [][2]string
	// lpTargets lists (router, neighborAddr) pairs whose LocalPref a
	// config-edit event may rewrite.
	lpTargets [][2]string
	// staticNH maps each internal router to a reachable next-hop address
	// (a directly connected peer) for generated static routes.
	staticNH map[string]string
	// staticNHs maps each internal router to every directly connected peer
	// address, the draw pool for ECMP static next-hop sets.
	staticNHs map[string][]string
	// lagLinks lists internal links whose loss narrows an equal-cost group
	// without stranding an endpoint (both ends keep another link) — the
	// partial-LAG failure targets.
	lagLinks [][2]string
	// ecmpRouters lists internal routers with at least two connected peers,
	// eligible for ECMP static churn.
	ecmpRouters []string
	// rrHubs lists route-reflector hubs whose whole client session fan can
	// flap at once, and rrClients their per-hub client sets — populated
	// only by the isp-rr world, the draw pool for rr-session-flap churn.
	rrHubs    []string
	rrClients map[string][]string
	// burstOrigins lists BGP speakers eligible to originate prefix-burst
	// advertisements (batch Networks adds followed by withdrawals).
	burstOrigins []string
	// verifySources is the router subset the walk-driven oracles source
	// from. The classic shapes verify from every internal router; the scale
	// shapes sample a seeded subset (always including the destination-stub
	// owners) so a full differential round stays smoke-affordable.
	verifySources []string
}

func (w *world) isExternal(name string) bool { return w.external[name] }

// buildWorld constructs (but does not start) the network for cfg. The
// construction consumes no scheduler randomness beyond the per-router
// clock-model seeds, and link/session jitter stays zero, so a (seed,
// schedule) pair replays to an identical capture log.
func buildWorld(cfg Config) (*world, error) {
	if cfg.Shape == "fattree-k4" || cfg.Shape == "isp-rr" {
		w, err := buildScaleWorld(cfg)
		if err != nil {
			return nil, err
		}
		finishWorld(w)
		return w, nil
	}
	n := cfg.Routers
	if n < 4 {
		return nil, fmt.Errorf("scenario: need at least 4 routers, have %d", n)
	}
	net := network.New(cfg.Seed)
	w := &world{net: net, external: map[string]bool{},
		staticNH: map[string]string{}, staticNHs: map[string][]string{}}

	name := func(i int) string { return fmt.Sprintf("x%d", i) }
	lb := func(i int) string { return fmt.Sprintf("10.255.%d.1", i) }
	for i := 0; i < n; i++ {
		// Deterministic skew, no jitter: observed per-router order equals
		// true order, which keeps replays exact while still exercising the
		// skew-tolerant cross-router matching.
		skew := time.Duration(i%5-2) * 10 * time.Millisecond
		if _, err := net.AddRouter(name(i), lb(i), skew, 0); err != nil {
			return nil, err
		}
		w.internals = append(w.internals, name(i))
	}

	var pairs [][2]int
	switch cfg.Shape {
	case "ring":
		for i := 0; i < n; i++ {
			pairs = append(pairs, [2]int{i, (i + 1) % n})
		}
	case "mesh":
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	case "fattree":
		// Two-level fat-tree slice: x0/x1 form the core; every other
		// router is an edge multi-homed to both cores.
		pairs = append(pairs, [2]int{0, 1})
		for i := 2; i < n; i++ {
			pairs = append(pairs, [2]int{0, i}, [2]int{1, i})
		}
	default:
		return nil, fmt.Errorf("scenario: unknown shape %q", cfg.Shape)
	}

	linkIdx := 0
	addLink := func(a, b string) error {
		subnet := fmt.Sprintf("10.%d.%d.0/30", linkIdx/250, linkIdx%250)
		linkIdx++
		_, err := net.Topo.AddLink(network.LinkSpecOf(a, b, subnet))
		return err
	}
	for _, pr := range pairs {
		a, b := name(pr[0]), name(pr[1])
		if err := addLink(a, b); err != nil {
			return nil, err
		}
		w.links = append(w.links, [2]string{a, b})
	}

	switch cfg.Mix {
	case "ospf+bgp":
		if err := buildBGPMix(cfg, w); err != nil {
			return nil, err
		}
	case "ospf", "rip", "eigrp":
		if err := buildIGPMix(cfg, w); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("scenario: unknown mix %q", cfg.Mix)
	}

	if err := net.Build(); err != nil {
		return nil, err
	}
	finishWorld(w)
	return w, nil
}

// finishWorld derives the post-Build churn pools every shape shares:
// static next hops, ECMP routers, partial-LAG links, and the oracle
// source set (all internals unless the shape sampled a subset).
func finishWorld(w *world) {
	// A valid next hop for generated statics: the peer address across each
	// router's first link. staticNHs keeps the full peer pool for ECMP
	// static sets.
	for _, r := range w.net.Routers() {
		if w.external[r.Name] {
			continue
		}
		for _, i := range r.Topo.Interfaces() {
			if i.Link != nil {
				if w.staticNH[r.Name] == "" {
					w.staticNH[r.Name] = i.Peer().Addr.String()
				}
				w.staticNHs[r.Name] = append(w.staticNHs[r.Name], i.Peer().Addr.String())
			}
		}
		if len(w.staticNHs[r.Name]) >= 2 {
			w.ecmpRouters = append(w.ecmpRouters, r.Name)
		}
	}
	// Partial-LAG targets: internal links both of whose endpoints keep at
	// least one other internal link when this one fails.
	degree := map[string]int{}
	for _, l := range w.links {
		degree[l[0]]++
		degree[l[1]]++
	}
	for _, l := range w.links {
		if degree[l[0]] >= 2 && degree[l[1]] >= 2 {
			w.lagLinks = append(w.lagLinks, l)
		}
	}
	if w.verifySources == nil {
		w.verifySources = w.internals
	}
}

// buildIGPMix configures a single-IGP network with P and Q as stub LANs on
// the first and last routers.
func buildIGPMix(cfg Config, w *world) error {
	n := w.net
	stub := func(router, iface string, p netip.Prefix) error {
		a4 := p.Addr().As4()
		addr := netip.AddrFrom4([4]byte{a4[0], a4[1], a4[2], 1})
		_, err := n.Topo.AddStub(router, iface, addr, p)
		return err
	}
	if err := stub(w.internals[0], "lanP", PrefixP); err != nil {
		return err
	}
	if err := stub(w.internals[len(w.internals)-1], "lanQ", PrefixQ); err != nil {
		return err
	}
	for _, name := range w.internals {
		rc := &config.Router{}
		switch cfg.Mix {
		case "ospf":
			rc.OSPF = config.OSPFConfig{Enabled: true}
		case "rip":
			rc.RIP = config.RIPConfig{Enabled: true}
		case "eigrp":
			rc.EIGRP = config.EIGRPConfig{Enabled: true, ASN: 1}
		}
		if err := n.Configure(name, rc); err != nil {
			return err
		}
	}
	return nil
}

// buildBGPMix configures the paper-style arrangement: OSPF on the internal
// links, an iBGP full mesh over loopbacks, and two external providers.
// e1 (AS 100) attaches to x0 and originates P and Q; e2 (AS 200) attaches
// to the middle router and originates P, so P is multi-homed and Q is
// single-homed.
func buildBGPMix(cfg Config, w *world) error {
	n := w.net
	mid := w.internals[len(w.internals)/2]
	ext := []struct {
		name     string
		lb       string
		asn      uint32
		attach   string
		subnet   string
		networks []netip.Prefix
		lp       uint32
	}{
		{"e1", "100.0.0.1", 100, w.internals[0], "10.200.0.0/30", []netip.Prefix{PrefixP, PrefixQ}, 20},
		{"e2", "200.0.0.1", 200, mid, "10.200.1.0/30", []netip.Prefix{PrefixP}, 30},
	}
	type uplink struct {
		extAddr netip.Addr
		asn     uint32
		lp      uint32
	}
	uplinks := map[string]uplink{}
	for i, e := range ext {
		if _, err := n.AddRouter(e.name, e.lb, 0, 0); err != nil {
			return err
		}
		w.external[e.name] = true
		l, err := n.Topo.AddLink(network.LinkSpecOf(e.attach, e.name, e.subnet))
		if err != nil {
			return err
		}
		intAddr, extAddr := l.A.Addr, l.B.Addr
		// The provider owns the prefixes it originates as stub LANs.
		for j, p := range e.networks {
			a4 := p.Addr().As4()
			stubAddr := netip.AddrFrom4([4]byte{a4[0], a4[1], a4[2], byte(i + 1)})
			if _, err := n.Topo.AddStub(e.name, fmt.Sprintf("lan%d", j), stubAddr, p); err != nil {
				return err
			}
		}
		ecfg := &config.Router{BGP: &config.BGPConfig{
			ASN: e.asn, RouterID: netip.MustParseAddr(e.lb),
			Neighbors: []config.Neighbor{{Addr: intAddr, RemoteAS: 65000}},
			Networks:  e.networks,
		}}
		if err := n.Configure(e.name, ecfg); err != nil {
			return err
		}
		uplinks[e.attach] = uplink{extAddr: extAddr, asn: e.asn, lp: e.lp}
	}

	for i, name := range w.internals {
		loop := fmt.Sprintf("10.255.%d.1", i)
		cfgR := &config.Router{BGP: &config.BGPConfig{
			ASN: 65000, RouterID: netip.MustParseAddr(loop),
		}}
		for j, peer := range w.internals {
			if peer == name {
				continue
			}
			cfgR.BGP.Neighbors = append(cfgR.BGP.Neighbors, config.Neighbor{
				Addr: netip.MustParseAddr(fmt.Sprintf("10.255.%d.1", j)), RemoteAS: 65000,
			})
			if name < peer {
				w.ibgp = append(w.ibgp, [2]string{name, peer})
			}
		}
		var ospfIfaces []string
		for _, l := range w.links {
			if l[0] == name {
				ospfIfaces = append(ospfIfaces, "eth-"+l[1])
			}
			if l[1] == name {
				ospfIfaces = append(ospfIfaces, "eth-"+l[0])
			}
		}
		cfgR.OSPF = config.OSPFConfig{Enabled: true, Interfaces: ospfIfaces}
		if up, ok := uplinks[name]; ok {
			cfgR.BGP.Neighbors = append(cfgR.BGP.Neighbors, config.Neighbor{
				Addr: up.extAddr, RemoteAS: up.asn, LocalPref: up.lp,
			})
			w.lpTargets = append(w.lpTargets, [2]string{name, up.extAddr.String()})
		}
		if err := n.Configure(name, cfgR); err != nil {
			return err
		}
	}
	return nil
}

// deriveRNG returns the deterministic generator used to fill unset Config
// fields and the churn schedule.
func deriveRNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}
