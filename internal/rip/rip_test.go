package rip

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/dv"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// WithdrawLocal removes a locally originated prefix.
func (r *Instance) WithdrawLocal(p netip.Prefix, cause ...uint64) {
	p = p.Masked()
	if !r.Local[p] {
		return
	}
	delete(r.Local, p)
	r.remove(p, cause)
}

type harness struct {
	sched *netsim.Scheduler
	log   *capture.Log
	insts map[string]*Instance
	fibs  map[string]*fib.Table
	wires map[string][2]string // "router:iface" -> (router, peerAddrString)
	addrs map[string]netip.Addr
}

func newHarness() *harness {
	return &harness{
		sched: netsim.NewScheduler(1),
		log:   capture.NewLog(),
		insts: map[string]*Instance{},
		fibs:  map[string]*fib.Table{},
		wires: map[string][2]string{},
		addrs: map[string]netip.Addr{},
	}
}

func (h *harness) DeliverDV(_ route.Protocol, fromRouter, ifname string, msg dv.Message, sendIO uint64) {
	dest, ok := h.wires[fromRouter+":"+ifname]
	if !ok {
		return
	}
	from := h.addrs[fromRouter+":"+ifname]
	h.sched.After(time.Millisecond, func() {
		if inst := h.insts[dest[0]]; inst != nil {
			inst.HandleUpdate(from, msg, sendIO)
		}
	})
}

func (h *harness) addRouter(name string) *Instance {
	rec := capture.NewRecorder(h.log, name, h.sched, nil)
	ft := fib.NewTable(rec)
	inst := New(name, rec, h.sched, ft, h)
	h.insts[name] = inst
	h.fibs[name] = ft
	return inst
}

func (h *harness) wire(a, b string, n int) {
	aAddr := netip.AddrFrom4([4]byte{10, 0, byte(n), 1})
	bAddr := netip.AddrFrom4([4]byte{10, 0, byte(n), 2})
	ifA, ifB := "to-"+b, "to-"+a
	h.insts[a].AddNeighbor(dv.Neighbor{Name: b, Addr: bAddr, Iface: ifA, Up: true})
	h.insts[b].AddNeighbor(dv.Neighbor{Name: a, Addr: aAddr, Iface: ifB, Up: true})
	h.wires[a+":"+ifA] = [2]string{b, ifB}
	h.wires[b+":"+ifB] = [2]string{a, ifA}
	h.addrs[a+":"+ifA] = aAddr
	h.addrs[b+":"+ifB] = bAddr
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	h.sched.MaxEvents = 200000
	if err := h.sched.Run(); err != nil {
		t.Fatal(err)
	}
}

var lan = pfx("172.16.0.0/24")

func TestPropagationAlongChain(t *testing.T) {
	h := newHarness()
	for _, n := range []string{"a", "b", "c"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1)
	h.wire("b", "c", 2)
	h.insts["a"].Originate(lan)
	h.run(t)
	rb := h.insts["b"].table[lan]
	if rb.metric != 2 || rb.nextHop != addr("10.0.1.1") {
		t.Fatalf("b route = %+v", rb)
	}
	rc := h.insts["c"].table[lan]
	if rc.metric != 3 || rc.nextHop != addr("10.0.2.1") {
		t.Fatalf("c route = %+v", rc)
	}
	if e, ok := h.fibs["c"].Exact(lan); !ok || e.Proto != route.ProtoRIP {
		t.Fatalf("c FIB = %+v %v", e, ok)
	}
}

func TestSplitHorizonPoisonReverse(t *testing.T) {
	h := newHarness()
	h.addRouter("a")
	h.addRouter("b")
	h.wire("a", "b", 1)
	h.insts["a"].Originate(lan)
	h.run(t)
	// b must have sent a poison (withdraw) back toward a, not an advert.
	poisons := h.log.Filter(func(io capture.IO) bool {
		return io.Router == "b" && io.Type == capture.SendWithdraw && io.Prefix == lan
	})
	adverts := h.log.Filter(func(io capture.IO) bool {
		return io.Router == "b" && io.Type == capture.SendAdvert && io.Prefix == lan
	})
	if len(poisons) == 0 {
		t.Fatal("no poison reverse sent")
	}
	if len(adverts) != 0 {
		t.Fatalf("b advertised the route back to a: %v", adverts)
	}
	// a's own route is unaffected by the poison.
	if r, ok := h.insts["a"].table[lan]; !ok || r.metric != 1 {
		t.Fatalf("a route = %+v %v", r, ok)
	}
}

func TestWithdrawLocalPropagates(t *testing.T) {
	h := newHarness()
	for _, n := range []string{"a", "b", "c"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1)
	h.wire("b", "c", 2)
	h.insts["a"].Originate(lan)
	h.run(t)
	h.insts["a"].WithdrawLocal(lan)
	h.run(t)
	for _, n := range []string{"a", "b", "c"} {
		if _, ok := h.insts[n].table[lan]; ok {
			t.Fatalf("%s kept withdrawn route", n)
		}
	}
	if _, ok := h.fibs["c"].Exact(lan); ok {
		t.Fatal("c FIB kept withdrawn route")
	}
}

func TestNeighborDownPurges(t *testing.T) {
	h := newHarness()
	h.addRouter("a")
	h.addRouter("b")
	h.wire("a", "b", 1)
	h.insts["a"].Originate(lan)
	h.run(t)
	h.insts["b"].NeighborDown(addr("10.0.1.1"))
	h.run(t)
	if _, ok := h.insts["b"].table[lan]; ok {
		t.Fatal("b kept route after neighbor down")
	}
}

func TestBetterMetricWins(t *testing.T) {
	// Diamond: a-b-d (2 hops) and a-c-d? Simpler: d hears the LAN from b
	// (far) and from c (near).
	h := newHarness()
	for _, n := range []string{"src", "far1", "far2", "dst", "near"} {
		h.addRouter(n)
	}
	h.wire("src", "far1", 1)
	h.wire("far1", "far2", 2)
	h.wire("far2", "dst", 3)
	h.wire("src", "near", 4)
	h.wire("near", "dst", 5)
	h.insts["src"].Originate(lan)
	h.run(t)
	r := h.insts["dst"].table[lan]
	if r.metric != 3 {
		t.Fatalf("dst metric = %d, want 3 (via near)", r.metric)
	}
	if r.nextHop != addr("10.0.5.1") {
		t.Fatalf("dst next hop = %v, want near", r.nextHop)
	}
}

func TestSendBeforeFIBOrdering(t *testing.T) {
	// RIP's distinguishing trait: triggered update precedes FIB install.
	h := newHarness()
	h.addRouter("a")
	h.addRouter("b")
	h.addRouter("c")
	h.wire("a", "b", 1)
	h.wire("b", "c", 2)
	h.insts["a"].Originate(lan)
	h.run(t)
	var sendT, fibT netsim.VirtualTime
	for _, io := range h.log.ForRouter("b") {
		if io.Prefix != lan {
			continue
		}
		switch io.Type {
		case capture.SendAdvert:
			if sendT == 0 {
				sendT = io.TrueTime
			}
		case capture.FIBInstall:
			fibT = io.TrueTime
		}
	}
	if sendT == 0 || fibT == 0 {
		t.Fatal("missing send or fib event on b")
	}
	if sendT >= fibT {
		t.Fatalf("RIP must send before FIB install: send=%v fib=%v", sendT, fibT)
	}
}

func TestInfinityCapsMetric(t *testing.T) {
	h := newHarness()
	h.addRouter("a")
	h.addRouter("b")
	h.wire("a", "b", 1)
	h.run(t)
	// Deliver an update at metric 15: b computes 16 => unreachable, not
	// installed.
	h.sched.After(time.Millisecond, func() {
		h.insts["b"].HandleUpdate(addr("10.0.1.1"), dv.Message{Prefix: lan, Metric: 15}, 0)
	})
	h.run(t)
	if _, ok := h.insts["b"].table[lan]; ok {
		t.Fatal("metric-16 route installed")
	}
}

func TestPoisonFromNonNextHopIgnored(t *testing.T) {
	h := newHarness()
	for _, n := range []string{"a", "b", "c"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1)
	h.wire("c", "b", 2)
	h.insts["a"].Originate(lan)
	h.run(t)
	// c (not b's next hop for lan) poisons the route; b must keep it.
	h.sched.After(time.Millisecond, func() {
		h.insts["b"].HandleUpdate(addr("10.0.2.1"), dv.Message{Prefix: lan, Metric: Infinity}, 0)
	})
	h.run(t)
	if _, ok := h.insts["b"].table[lan]; !ok {
		t.Fatal("poison from non-nexthop removed the route")
	}
}

func TestUpdateFromCurrentNextHopAlwaysAccepted(t *testing.T) {
	h := newHarness()
	h.addRouter("a")
	h.addRouter("b")
	h.wire("a", "b", 1)
	h.insts["a"].Originate(lan)
	h.run(t)
	// a's metric worsens (e.g. internal topology change): b must follow
	// even though the new metric is worse.
	h.sched.After(time.Millisecond, func() {
		h.insts["b"].HandleUpdate(addr("10.0.1.1"), dv.Message{Prefix: lan, Metric: 5}, 0)
	})
	h.run(t)
	if r := h.insts["b"].table[lan]; r.metric != 6 {
		t.Fatalf("metric = %d, want 6", r.metric)
	}
}

func TestRecvIOCausality(t *testing.T) {
	h := newHarness()
	h.addRouter("a")
	h.addRouter("b")
	h.wire("a", "b", 1)
	h.insts["a"].Originate(lan)
	h.run(t)
	var rib capture.IO
	for _, io := range h.log.ForRouter("b") {
		if io.Type == capture.RIBInstall && io.Prefix == lan {
			rib = io
		}
	}
	if rib.ID == 0 || len(rib.Causes) == 0 {
		t.Fatalf("rib = %+v", rib)
	}
	byID := func(id uint64) capture.IO {
		got := h.log.Filter(func(io capture.IO) bool { return io.ID == id })
		if len(got) != 1 {
			t.Fatalf("I/O %d: %v", id, got)
		}
		return got[0]
	}
	cause := byID(rib.Causes[0])
	if cause.Type != capture.RecvAdvert || cause.Proto != route.ProtoRIP {
		t.Fatalf("cause = %+v", cause)
	}
	sendCause := byID(cause.Causes[0])
	if sendCause.Router != "a" || sendCause.Type != capture.SendAdvert {
		t.Fatalf("send cause = %+v", sendCause)
	}
}

// TestNeighborUpReadvertisesTable pins the revival path: after both ends
// of a link go down and come back up, each end re-advertises its whole
// table to the other through the advert debounce, advertDelay after the
// up, and every such send names the up as its cause.
func TestNeighborUpReadvertisesTable(t *testing.T) {
	h := newHarness()
	for _, n := range []string{"a", "b", "c"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1)
	h.wire("b", "c", 2)
	lanB, lanC := pfx("172.16.1.0/24"), pfx("172.16.2.0/24")
	h.insts["a"].Originate(lan)
	h.insts["b"].Originate(lanB)
	h.insts["c"].Originate(lanC)
	h.run(t)
	bAddr, cAddr := addr("10.0.2.1"), addr("10.0.2.2")
	h.insts["b"].NeighborDown(cAddr)
	h.insts["c"].NeighborDown(bAddr)
	h.run(t)
	if _, ok := h.insts["c"].table[lan]; ok {
		t.Fatal("c kept a's route with its only neighbour down")
	}

	const upCause = 1 << 40
	var upT netsim.VirtualTime
	var want []netip.Prefix
	h.sched.After(time.Millisecond, func() {
		upT = h.sched.Now()
		for p := range h.insts["b"].table {
			want = append(want, p)
		}
		h.insts["b"].NeighborUp(cAddr, upCause)
		h.insts["c"].NeighborUp(bAddr, upCause+1)
	})
	h.run(t)

	var got []netip.Prefix
	for _, io := range h.log.ForRouter("b") {
		if io.Peer != "c" || io.TrueTime < upT || io.TrueTime > upT.Add(advertDelay) ||
			(io.Type != capture.SendAdvert && io.Type != capture.SendWithdraw) {
			continue
		}
		if io.Type != capture.SendAdvert || io.TrueTime != upT.Add(advertDelay) ||
			len(io.Causes) != 1 || io.Causes[0] != upCause {
			t.Fatalf("revival send %+v: want an advert at %v caused by the up", io, upT.Add(advertDelay))
		}
		got = append(got, io.Prefix)
	}
	slices.SortFunc(want, route.ComparePrefix)
	slices.SortFunc(got, route.ComparePrefix)
	if len(want) != 2 || !slices.Equal(got, want) {
		t.Fatalf("b re-advertised %v to c, want its table %v", got, want)
	}
	if r := h.insts["c"].table[lan]; r.metric != 3 || r.nextHop != bAddr {
		t.Fatalf("c relearned a's route as %+v", r)
	}
	if r := h.insts["b"].table[lanC]; r.metric != 2 || r.nextHop != cAddr {
		t.Fatalf("b relearned c's route as %+v", r)
	}
}
