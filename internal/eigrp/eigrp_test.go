package eigrp

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
func (e *Instance) WithdrawLocal(p netip.Prefix, cause ...uint64) {
	p = p.Masked()
	if !e.Local[p] {
		return
	}
	delete(e.Local, p)
	e.runDUAL(p, cause)
}

type harness struct {
	sched *netsim.Scheduler
	log   *capture.Log
	insts map[string]*Instance
	fibs  map[string]*fib.Table
	wires map[string][2]string
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

func (h *harness) wire(a, b string, n int, cost uint32) {
	aAddr := netip.AddrFrom4([4]byte{10, 0, byte(n), 1})
	bAddr := netip.AddrFrom4([4]byte{10, 0, byte(n), 2})
	ifA, ifB := "to-"+b, "to-"+a
	h.insts[a].AddNeighbor(dv.Neighbor{Name: b, Addr: bAddr, Iface: ifA, Cost: cost, Up: true})
	h.insts[b].AddNeighbor(dv.Neighbor{Name: a, Addr: aAddr, Iface: ifB, Cost: cost, Up: true})
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

func TestPropagationAndCompositeMetric(t *testing.T) {
	h := newHarness()
	for _, n := range []string{"a", "b", "c"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1, 10)
	h.wire("b", "c", 2, 5)
	h.insts["a"].Originate(lan)
	h.run(t)
	rb := h.insts["b"].sel[lan]
	if rb.dist != 10 || rb.nextHop != addr("10.0.1.1") {
		t.Fatalf("b = %+v", rb)
	}
	rc := h.insts["c"].sel[lan]
	if rc.dist != 15 || rc.nextHop != addr("10.0.2.1") {
		t.Fatalf("c = %+v", rc)
	}
}

func TestFIBBeforeSendOrdering(t *testing.T) {
	// EIGRP's distinguishing HBR (§4.1): FIB install happens-before send.
	h := newHarness()
	for _, n := range []string{"a", "b", "c"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1, 1)
	h.wire("b", "c", 2, 1)
	h.insts["a"].Originate(lan)
	h.run(t)
	var fibT, sendT netsim.VirtualTime
	var fibID uint64
	var sendCauses []uint64
	for _, io := range h.log.ForRouter("b") {
		if io.Prefix != lan {
			continue
		}
		switch io.Type {
		case capture.FIBInstall:
			fibT, fibID = io.TrueTime, io.ID
		case capture.SendAdvert:
			if sendT == 0 {
				sendT, sendCauses = io.TrueTime, io.Causes
			}
		}
	}
	if fibT == 0 || sendT == 0 {
		t.Fatal("missing events")
	}
	if fibT > sendT {
		t.Fatalf("FIB install must precede send: fib=%v send=%v", fibT, sendT)
	}
	if len(sendCauses) == 0 || sendCauses[0] != fibID {
		t.Fatalf("send must be ground-truth caused by FIB install: causes=%v fib=%d", sendCauses, fibID)
	}
}

func TestFeasibilityConditionPreventsLoop(t *testing.T) {
	// Triangle a-b-c. a originates. c's route via b has rd=cost(a-b)=1.
	// When b loses its link to a, b must not switch to c if c's reported
	// distance is not below b's feasible distance.
	h := newHarness()
	for _, n := range []string{"a", "b", "c"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1, 1)
	h.wire("b", "c", 2, 1)
	h.insts["a"].Originate(lan)
	h.run(t)
	// c reports rd=2 back? No: split horizon means c never advertises to
	// b. Sanity: b's topo has only a's entry.
	h.insts["b"].NeighborDown(addr("10.0.1.1"))
	h.run(t)
	if _, ok := h.insts["b"].sel[lan]; ok {
		t.Fatal("b kept unreachable route")
	}
	// And c learns the withdrawal.
	if _, ok := h.insts["c"].sel[lan]; ok {
		t.Fatal("c kept unreachable route")
	}
}

func TestFallbackToFeasibleSuccessor(t *testing.T) {
	// dst has two paths to the LAN: via near (cost 1, rd 0 direct from
	// src... ) Build: src -- near -- dst and src -- far -- dst with
	// costs making near primary and far a feasible successor.
	h := newHarness()
	for _, n := range []string{"src", "near", "far", "dst"} {
		h.addRouter(n)
	}
	h.wire("src", "near", 1, 1)
	h.wire("near", "dst", 2, 1)
	h.wire("src", "far", 3, 1)
	h.wire("far", "dst", 4, 10)
	h.insts["src"].Originate(lan)
	h.run(t)
	r := h.insts["dst"].sel[lan]
	if r.nextHop != addr("10.0.2.1") {
		t.Fatalf("primary = %+v, want via near", r)
	}
	// Fail the near path at dst.
	h.insts["dst"].NeighborDown(addr("10.0.2.1"))
	h.run(t)
	r = h.insts["dst"].sel[lan]
	if r.nextHop != addr("10.0.4.1") {
		t.Fatalf("after failure = %+v, want via far", r)
	}
	if r.dist != 11 {
		t.Fatalf("metric = %d, want 11", r.dist)
	}
}

func TestWithdrawLocalPropagates(t *testing.T) {
	h := newHarness()
	for _, n := range []string{"a", "b"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1, 1)
	h.insts["a"].Originate(lan)
	h.run(t)
	if _, ok := h.insts["b"].sel[lan]; !ok {
		t.Fatal("b missing route")
	}
	h.insts["a"].WithdrawLocal(lan)
	h.run(t)
	if _, ok := h.insts["b"].sel[lan]; ok {
		t.Fatal("b kept withdrawn route")
	}
	if _, ok := h.fibs["b"].Exact(lan); ok {
		t.Fatal("b FIB kept withdrawn route")
	}
}

func TestSplitHorizon(t *testing.T) {
	h := newHarness()
	h.addRouter("a")
	h.addRouter("b")
	h.wire("a", "b", 1, 1)
	h.insts["a"].Originate(lan)
	h.run(t)
	adverts := h.log.Filter(func(io capture.IO) bool {
		return io.Router == "b" && io.Type == capture.SendAdvert && io.Prefix == lan
	})
	if len(adverts) != 0 {
		t.Fatalf("b advertised back toward its successor: %v", adverts)
	}
}

func TestLocalOriginationDoesNotSelfFIB(t *testing.T) {
	h := newHarness()
	h.addRouter("a")
	h.insts["a"].Originate(lan)
	h.run(t)
	// EIGRP installs no FIB entry for a connected prefix (the connected
	// source owns it), but the RIB entry and advert exist.
	if _, ok := h.fibs["a"].Exact(lan); ok {
		t.Fatal("EIGRP self-installed a connected prefix")
	}
	ribs := h.log.Filter(func(io capture.IO) bool {
		return io.Router == "a" && io.Type == capture.RIBInstall && io.Proto == route.ProtoEIGRP
	})
	if len(ribs) != 1 {
		t.Fatalf("ribs = %v", ribs)
	}
}

func TestUnreachablePoisonOnlyFromSuccessor(t *testing.T) {
	h := newHarness()
	for _, n := range []string{"a", "b", "x"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1, 1)
	h.wire("x", "b", 2, 1)
	h.insts["a"].Originate(lan)
	h.run(t)
	// x poisons; b's successor is a, so the topology entry for x (none)
	// changes nothing.
	h.sched.After(time.Millisecond, func() {
		h.insts["b"].HandleUpdate(addr("10.0.2.1"), dv.Message{Prefix: lan, Metric: Unreachable}, 0)
	})
	h.run(t)
	if _, ok := h.insts["b"].sel[lan]; !ok {
		t.Fatal("poison from non-successor removed route")
	}
}

// TestNeighborUpReadvertisesTable pins the revival path: after both ends
// of a link go down and come back up, each end re-advertises every route
// it holds to the other fibDelay after the up, keeping the FIB-before-send
// order, and every such send names the up as its cause.
func TestNeighborUpReadvertisesTable(t *testing.T) {
	h := newHarness()
	for _, n := range []string{"a", "b", "c"} {
		h.addRouter(n)
	}
	h.wire("a", "b", 1, 1)
	h.wire("b", "c", 2, 1)
	lanB, lanC := pfx("172.16.1.0/24"), pfx("172.16.2.0/24")
	h.insts["a"].Originate(lan)
	h.insts["b"].Originate(lanB)
	h.insts["c"].Originate(lanC)
	h.run(t)
	bAddr, cAddr := addr("10.0.2.1"), addr("10.0.2.2")
	h.insts["b"].NeighborDown(cAddr)
	h.insts["c"].NeighborDown(bAddr)
	h.run(t)
	if _, ok := h.insts["c"].sel[lan]; ok {
		t.Fatal("c kept a's route with its only neighbour down")
	}

	const upCause = 1 << 40
	var upT netsim.VirtualTime
	var want []netip.Prefix
	h.sched.After(time.Millisecond, func() {
		upT = h.sched.Now()
		for p := range h.insts["b"].sel {
			want = append(want, p)
		}
		h.insts["b"].NeighborUp(cAddr, upCause)
		h.insts["c"].NeighborUp(bAddr, upCause+1)
	})
	h.run(t)

	var got []netip.Prefix
	for _, io := range h.log.ForRouter("b") {
		if io.Peer != "c" || io.TrueTime < upT || io.TrueTime > upT.Add(fibDelay) ||
			(io.Type != capture.SendAdvert && io.Type != capture.SendWithdraw) {
			continue
		}
		if io.Type != capture.SendAdvert || io.TrueTime != upT.Add(fibDelay) ||
			len(io.Causes) != 1 || io.Causes[0] != upCause {
			t.Fatalf("revival send %+v: want an advert at %v caused by the up", io, upT.Add(fibDelay))
		}
		got = append(got, io.Prefix)
	}
	slices.SortFunc(want, route.ComparePrefix)
	slices.SortFunc(got, route.ComparePrefix)
	if len(want) != 2 || !slices.Equal(got, want) {
		t.Fatalf("b re-advertised %v to c, want every route it holds %v", got, want)
	}
	if r := h.insts["c"].sel[lan]; r.dist != 2 || r.nextHop != bAddr {
		t.Fatalf("c relearned a's route as %+v", r)
	}
	if r := h.insts["b"].sel[lanC]; r.dist != 1 || r.nextHop != cAddr {
		t.Fatalf("b relearned c's route as %+v", r)
	}
}
