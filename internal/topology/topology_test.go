package topology

import (
	"net/netip"
	"sort"
	"testing"
	"time"
)

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

func mustAddr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func mustPfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func add(t *testing.T, topo *Topology, name, lb string) *Router {
	t.Helper()
	r, err := topo.AddRouter(name, mustAddr(lb))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func link(t *testing.T, topo *Topology, a, b string, n int) *Link {
	t.Helper()
	p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(n), 0}), 30)
	l, err := topo.AddLink(LinkSpec{
		ARouter: a, AIface: "eth" + b, AAddr: netip.AddrFrom4([4]byte{10, 0, byte(n), 1}),
		BRouter: b, BIface: "eth" + a, BAddr: netip.AddrFrom4([4]byte{10, 0, byte(n), 2}),
		Prefix: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func triangle(t *testing.T) *Topology {
	topo := New()
	add(t, topo, "r1", "1.1.1.1")
	add(t, topo, "r2", "2.2.2.2")
	add(t, topo, "r3", "3.3.3.3")
	link(t, topo, "r1", "r2", 1)
	link(t, topo, "r1", "r3", 2)
	link(t, topo, "r2", "r3", 3)
	return topo
}

func TestAddRouterDuplicates(t *testing.T) {
	topo := New()
	add(t, topo, "r1", "1.1.1.1")
	if _, err := topo.AddRouter("r1", mustAddr("9.9.9.9")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := topo.AddRouter("r2", mustAddr("1.1.1.1")); err == nil {
		t.Fatal("duplicate loopback accepted")
	}
}

func TestLinkWiring(t *testing.T) {
	topo := triangle(t)
	l := topo.LinkBetween("r1", "r2")
	if l == nil || !l.Up() {
		t.Fatal("missing or down link")
	}
	if l.A.Peer() != l.B || l.B.Peer() != l.A {
		t.Fatal("peer wiring broken")
	}
	if l.Delay != time.Millisecond || l.Cost != 1 {
		t.Fatalf("defaults not applied: %v %v", l.Delay, l.Cost)
	}
	r1 := topo.Router("r1")
	if got := len(r1.Interfaces()); got != 2 {
		t.Fatalf("r1 has %d interfaces", got)
	}
	if r1.Interface("ethr2") == nil || r1.Interface("nope") != nil {
		t.Fatal("Interface lookup")
	}
	if l != topo.LinkBetween("r2", "r1") {
		t.Fatal("link lookup not symmetric")
	}
}

func TestAddLinkValidation(t *testing.T) {
	topo := New()
	add(t, topo, "r1", "1.1.1.1")
	add(t, topo, "r2", "2.2.2.2")
	bad := []LinkSpec{
		{ARouter: "rX", AIface: "e0", BRouter: "r2", BIface: "e0",
			AAddr: mustAddr("10.0.0.1"), BAddr: mustAddr("10.0.0.2"), Prefix: mustPfx("10.0.0.0/30")},
		{ARouter: "r1", AIface: "e0", BRouter: "r2", BIface: "e0",
			AAddr: mustAddr("11.0.0.1"), BAddr: mustAddr("10.0.0.2"), Prefix: mustPfx("10.0.0.0/30")},
		{ARouter: "r1", AIface: "e0", BRouter: "r2", BIface: "e0",
			AAddr: mustAddr("10.0.0.1"), BAddr: mustAddr("10.0.0.1"), Prefix: mustPfx("10.0.0.0/30")},
	}
	for i, spec := range bad {
		if _, err := topo.AddLink(spec); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
	// Valid link, then a duplicate interface name.
	if _, err := topo.AddLink(LinkSpec{ARouter: "r1", AIface: "e0", BRouter: "r2", BIface: "e0",
		AAddr: mustAddr("10.0.0.1"), BAddr: mustAddr("10.0.0.2"), Prefix: mustPfx("10.0.0.0/30")}); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddLink(LinkSpec{ARouter: "r1", AIface: "e0", BRouter: "r2", BIface: "e1",
		AAddr: mustAddr("10.0.1.1"), BAddr: mustAddr("10.0.1.2"), Prefix: mustPfx("10.0.1.0/30")}); err == nil {
		t.Fatal("duplicate interface accepted")
	}
}

func TestNeighborsRespectLinkState(t *testing.T) {
	topo := triangle(t)
	got := topo.Neighbors("r1")
	if len(got) != 2 || got[0] != "r2" || got[1] != "r3" {
		t.Fatalf("Neighbors = %v", got)
	}
	topo.LinkBetween("r1", "r2").SetUp(false)
	got = topo.Neighbors("r1")
	if len(got) != 1 || got[0] != "r3" {
		t.Fatalf("Neighbors after down = %v", got)
	}
}

func TestConnectedPrefixes(t *testing.T) {
	topo := triangle(t)
	r1 := topo.Router("r1")
	cp := r1.ConnectedPrefixes()
	if len(cp) != 2 {
		t.Fatalf("connected = %v", cp)
	}
	topo.LinkBetween("r1", "r2").SetUp(false)
	if len(r1.ConnectedPrefixes()) != 1 {
		t.Fatal("down link still in connected prefixes")
	}
	// Stub interfaces are always present.
	if _, err := topo.AddStub("r1", "lan0", mustAddr("172.16.0.1"), mustPfx("172.16.0.0/24")); err != nil {
		t.Fatal(err)
	}
	if len(r1.ConnectedPrefixes()) != 2 {
		t.Fatal("stub missing from connected prefixes")
	}
}

func TestAddStubValidation(t *testing.T) {
	topo := New()
	add(t, topo, "r1", "1.1.1.1")
	if _, err := topo.AddStub("nope", "e0", mustAddr("172.16.0.1"), mustPfx("172.16.0.0/24")); err == nil {
		t.Fatal("unknown router accepted")
	}
	if _, err := topo.AddStub("r1", "e0", mustAddr("1.2.3.4"), mustPfx("172.16.0.0/24")); err == nil {
		t.Fatal("addr outside prefix accepted")
	}
	if _, err := topo.AddStub("r1", "e0", mustAddr("172.16.0.1"), mustPfx("172.16.0.0/24")); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddStub("r1", "e0", mustAddr("172.16.1.1"), mustPfx("172.16.1.0/24")); err == nil {
		t.Fatal("duplicate iface accepted")
	}
	stub := topo.Router("r1").Interface("e0")
	if stub.Peer() != nil {
		t.Fatal("stub has a peer")
	}
}

func TestOwnerOf(t *testing.T) {
	topo := triangle(t)
	if got := topo.OwnerOf(mustAddr("2.2.2.2")); got != "r2" {
		t.Fatalf("loopback owner = %q", got)
	}
	l := topo.LinkBetween("r1", "r2")
	if got := topo.OwnerOf(l.A.Addr); got != l.A.Router {
		t.Fatalf("iface owner = %q", got)
	}
	if got := topo.OwnerOf(mustAddr("203.0.113.99")); got != "" {
		t.Fatalf("unknown addr owner = %q", got)
	}
}

func TestRoutersSorted(t *testing.T) {
	topo := New()
	add(t, topo, "zeta", "1.1.1.1")
	add(t, topo, "alpha", "2.2.2.2")
	rs := topo.Routers()
	if rs[0].Name != "alpha" || rs[1].Name != "zeta" {
		t.Fatalf("order = %v,%v", rs[0].Name, rs[1].Name)
	}
	if topo.Router("missing") != nil {
		t.Fatal("missing router should be nil")
	}
}

func TestInterfaceByAddrAndID(t *testing.T) {
	topo := triangle(t)
	r1 := topo.Router("r1")
	i := r1.Interface("ethr2")
	if r1.InterfaceByAddr(i.Addr) != i {
		t.Fatal("InterfaceByAddr")
	}
	if r1.InterfaceByAddr(mustAddr("8.8.8.8")) != nil {
		t.Fatal("bogus addr matched")
	}
}
