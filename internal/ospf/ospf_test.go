package ospf

import (
	"net/netip"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// harness wires instances point-to-point with a fixed delay.
type harness struct {
	sched *netsim.Scheduler
	log   *capture.Log
	insts map[string]*Instance
	fibs  map[string]*fib.Table
	// wires maps "router:iface" to the remote (router, iface).
	wires map[string][2]string
	delay time.Duration
}

func newHarness() *harness {
	return &harness{
		sched: netsim.NewScheduler(1),
		log:   capture.NewLog(),
		insts: map[string]*Instance{},
		fibs:  map[string]*fib.Table{},
		wires: map[string][2]string{},
		delay: time.Millisecond,
	}
}

func (h *harness) DeliverOSPF(fromRouter, ifname string, lsa LSA, sendIO uint64) {
	dest, ok := h.wires[fromRouter+":"+ifname]
	if !ok {
		return
	}
	h.sched.After(h.delay, func() {
		if inst := h.insts[dest[0]]; inst != nil {
			inst.HandleLSA(dest[1], lsa, sendIO)
		}
	})
}

func (h *harness) addRouter(name, lb string) *Instance {
	rec := capture.NewRecorder(h.log, name, h.sched, nil)
	ft := fib.NewTable(rec)
	inst := New(name, addr(lb), rec, h.sched, ft, h)
	h.insts[name] = inst
	h.fibs[name] = ft
	return inst
}

// wire connects a:ifA <-> b:ifB on subnet n with cost.
func (h *harness) wire(a, b string, n int, cost uint32) {
	p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(n), 0}), 30)
	aAddr := netip.AddrFrom4([4]byte{10, 0, byte(n), 1})
	bAddr := netip.AddrFrom4([4]byte{10, 0, byte(n), 2})
	ifA, ifB := "to-"+b, "to-"+a
	h.insts[a].AddIface(Iface{
		Name: ifA, Cost: cost, Prefix: p, LocalAddr: aAddr,
		NeighborID: h.insts[b].routerID, NeighborName: b, NeighborAddr: bAddr, Up: true,
	})
	h.insts[b].AddIface(Iface{
		Name: ifB, Cost: cost, Prefix: p, LocalAddr: bAddr,
		NeighborID: h.insts[a].routerID, NeighborName: a, NeighborAddr: aAddr, Up: true,
	})
	h.wires[a+":"+ifA] = [2]string{b, ifB}
	h.wires[b+":"+ifB] = [2]string{a, ifA}
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	h.sched.MaxEvents = 200000
	if err := h.sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) startAll(t *testing.T) {
	for _, inst := range h.insts {
		inst.Start()
	}
	h.run(t)
}

// triangle: r1-r2 cost 1, r1-r3 cost 10, r2-r3 cost 1.
func triangle() *harness {
	h := newHarness()
	h.addRouter("r1", "1.1.1.1")
	h.addRouter("r2", "2.2.2.2")
	h.addRouter("r3", "3.3.3.3")
	h.wire("r1", "r2", 1, 1)
	h.wire("r1", "r3", 2, 10)
	h.wire("r2", "r3", 3, 1)
	return h
}

func TestLoopbackRoutesConverge(t *testing.T) {
	h := triangle()
	h.startAll(t)
	// r1 reaches 3.3.3.3/32 via r2 (cost 1+1=2 < direct 10).
	r := h.insts["r1"].rib[pfx("3.3.3.3/32")]
	if r.NextHop != addr("10.0.1.2") {
		t.Fatalf("r1 -> r3 next hop = %v, want via r2 (10.0.1.2)", r.NextHop)
	}
	if r.Metric != 2 {
		t.Fatalf("metric = %d, want 2", r.Metric)
	}
	// All routers know all loopbacks.
	for name, inst := range h.insts {
		for _, lb := range []string{"1.1.1.1", "2.2.2.2", "3.3.3.3"} {
			if inst.routerID == addr(lb) {
				continue
			}
			if _, ok := inst.rib[pfx(lb+"/32")]; !ok {
				t.Fatalf("%s missing route to %s", name, lb)
			}
		}
	}
}

func TestLinkSubnetRoutes(t *testing.T) {
	h := triangle()
	h.startAll(t)
	// r1 should have a route to the r2-r3 subnet 10.0.3.0/30.
	r, ok := h.insts["r1"].rib[pfx("10.0.3.0/30")]
	if !ok {
		t.Fatal("r1 missing route to remote link subnet")
	}
	if r.NextHop != addr("10.0.1.2") {
		t.Fatalf("next hop = %v", r.NextHop)
	}
	// r1 must NOT have OSPF routes for its own connected subnets.
	if _, ok := h.insts["r1"].rib[pfx("10.0.1.0/30")]; ok {
		t.Fatal("connected subnet leaked into OSPF RIB")
	}
}

func TestMetricForBGPNextHopResolution(t *testing.T) {
	h := triangle()
	h.startAll(t)
	m, ok := h.insts["r1"].Metric(addr("3.3.3.3"))
	if !ok || m != 2 {
		t.Fatalf("Metric(3.3.3.3) = %d,%v", m, ok)
	}
	// Interface addresses also resolve.
	m, ok = h.insts["r1"].Metric(addr("10.0.3.2"))
	if !ok || m != 2 {
		t.Fatalf("Metric(iface of r3) = %d,%v", m, ok)
	}
	if _, ok := h.insts["r1"].Metric(addr("9.9.9.9")); ok {
		t.Fatal("unknown address resolved")
	}
	// Self at distance 0.
	if m, ok := h.insts["r1"].Metric(addr("1.1.1.1")); !ok || m != 0 {
		t.Fatalf("self metric = %d,%v", m, ok)
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	h := triangle()
	h.startAll(t)
	// Fail r1-r2 on both ends (hardware event at each router).
	h.insts["r1"].SetIfaceUp("to-r2", false)
	h.insts["r2"].SetIfaceUp("to-r1", false)
	h.run(t)
	// r1 now reaches r2 via r3: cost 10+1 = 11.
	r := h.insts["r1"].rib[pfx("2.2.2.2/32")]
	if r.NextHop != addr("10.0.2.2") || r.Metric != 11 {
		t.Fatalf("after failure r1->r2 = %+v", r)
	}
	// FIB followed.
	e, ok := h.fibs["r1"].Exact(pfx("2.2.2.2/32"))
	if !ok || e.NextHop != addr("10.0.2.2") {
		t.Fatalf("FIB = %+v %v", e, ok)
	}
}

func TestPartitionRemovesRoutes(t *testing.T) {
	h := newHarness()
	h.addRouter("a", "1.1.1.1")
	h.addRouter("b", "2.2.2.2")
	h.wire("a", "b", 1, 1)
	h.startAll(t)
	if _, ok := h.insts["a"].rib[pfx("2.2.2.2/32")]; !ok {
		t.Fatal("a missing b route")
	}
	h.insts["a"].SetIfaceUp("to-b", false)
	h.insts["b"].SetIfaceUp("to-a", false)
	h.run(t)
	if _, ok := h.insts["a"].rib[pfx("2.2.2.2/32")]; ok {
		t.Fatal("stale route survived partition")
	}
	if _, ok := h.insts["a"].Metric(addr("2.2.2.2")); ok {
		t.Fatal("metric survived partition")
	}
}

func TestStubInterfaceAdvertised(t *testing.T) {
	h := newHarness()
	a := h.addRouter("a", "1.1.1.1")
	h.addRouter("b", "2.2.2.2")
	h.wire("a", "b", 1, 1)
	a.AddIface(Iface{Name: "lan0", Cost: 5, Prefix: pfx("172.16.0.0/24"), LocalAddr: addr("172.16.0.1"), Up: true, Stub: true})
	h.startAll(t)
	r, ok := h.insts["b"].rib[pfx("172.16.0.0/24")]
	if !ok || r.Metric != 6 {
		t.Fatalf("stub route = %+v %v", r, ok)
	}
}

func TestStaleLSANotReFlooded(t *testing.T) {
	h := newHarness()
	h.addRouter("a", "1.1.1.1")
	h.addRouter("b", "2.2.2.2")
	h.addRouter("c", "3.3.3.3")
	h.wire("a", "b", 1, 1)
	h.wire("b", "c", 2, 1)
	h.startAll(t)
	sends := len(h.log.Filter(func(io capture.IO) bool { return io.Type == capture.SendAdvert }))
	// Replay an old LSA into b: must not trigger any new flooding.
	old := LSA{Origin: addr("1.1.1.1"), Seq: 1}
	h.sched.After(time.Millisecond, func() {
		h.insts["b"].HandleLSA("to-a", old, 0)
	})
	h.run(t)
	after := len(h.log.Filter(func(io capture.IO) bool { return io.Type == capture.SendAdvert }))
	if after != sends {
		t.Fatalf("stale LSA caused %d new sends", after-sends)
	}
}

func TestECMPTieStable(t *testing.T) {
	// Square: a-b-d and a-c-d, equal costs; route choice must be
	// deterministic across runs.
	build := func() netip.Addr {
		h := newHarness()
		h.addRouter("a", "1.1.1.1")
		h.addRouter("b", "2.2.2.2")
		h.addRouter("c", "3.3.3.3")
		h.addRouter("d", "4.4.4.4")
		h.wire("a", "b", 1, 1)
		h.wire("a", "c", 2, 1)
		h.wire("b", "d", 3, 1)
		h.wire("c", "d", 4, 1)
		for _, inst := range h.insts {
			inst.Start()
		}
		h.sched.MaxEvents = 200000
		_ = h.sched.Run()
		return h.insts["a"].rib[pfx("4.4.4.4/32")].NextHop
	}
	first := build()
	for i := 0; i < 3; i++ {
		if got := build(); got != first {
			t.Fatalf("nondeterministic ECMP choice: %v vs %v", got, first)
		}
	}
}

func TestCausalChainRecvToRIB(t *testing.T) {
	h := newHarness()
	h.addRouter("a", "1.1.1.1")
	h.addRouter("b", "2.2.2.2")
	h.wire("a", "b", 1, 1)
	h.startAll(t)
	// a's RIB install for 2.2.2.2/32 must causally chain from a recv.
	var rib capture.IO
	for _, io := range h.log.ForRouter("a") {
		if io.Type == capture.RIBInstall && io.Prefix == pfx("2.2.2.2/32") {
			rib = io
		}
	}
	if rib.ID == 0 || len(rib.Causes) == 0 {
		t.Fatalf("rib = %+v", rib)
	}
	cause := h.log.Filter(func(io capture.IO) bool { return io.ID == rib.Causes[0] })
	if len(cause) != 1 || cause[0].Type != capture.RecvAdvert || cause[0].Proto != route.ProtoOSPF {
		t.Fatalf("cause = %+v", cause)
	}
}

func TestFloodingReachesAllRoutersOnChain(t *testing.T) {
	h := newHarness()
	names := []string{"a", "b", "c", "d", "e"}
	for i, n := range names {
		h.addRouter(n, netip.AddrFrom4([4]byte{byte(i + 1), byte(i + 1), byte(i + 1), byte(i + 1)}).String())
	}
	for i := 0; i < len(names)-1; i++ {
		h.wire(names[i], names[i+1], i+1, 1)
	}
	h.startAll(t)
	// Every router's LSDB has all five origins.
	for _, n := range names {
		if got := len(h.insts[n].lsdb); got != 5 {
			t.Fatalf("%s LSDB has %d origins", n, got)
		}
	}
	// a reaches e with metric 4.
	r := h.insts["a"].rib[pfx("5.5.5.5/32")]
	if r.Metric != 4 {
		t.Fatalf("a->e metric = %d", r.Metric)
	}
}

func TestIfaceAccessors(t *testing.T) {
	h := newHarness()
	a := h.addRouter("a", "1.1.1.1")
	h.addRouter("b", "2.2.2.2")
	h.wire("a", "b", 1, 1)
	if a.Iface("to-b") == nil || a.Iface("nope") != nil {
		t.Fatal("Iface lookup")
	}
	// SetIfaceUp with same state is a no-op (no new LSA).
	a.Start()
	h.run(t)
	n := h.log.Len()
	a.SetIfaceUp("to-b", true)
	h.run(t)
	if h.log.Len() != n {
		t.Fatal("no-op SetIfaceUp generated I/O")
	}
}
