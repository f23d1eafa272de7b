package fib

import (
	"net/netip"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

type env struct {
	sched *netsim.Scheduler
	log   *capture.Log
	tbl   *Table
}

func newEnv() *env {
	s := netsim.NewScheduler(1)
	log := capture.NewLog()
	rec := capture.NewRecorder(log, "r1", s, nil)
	return &env{sched: s, log: log, tbl: NewTable(rec)}
}

func bgpRoute(p, nh string, ibgp bool) route.Route {
	r := route.Route{Prefix: pfx(p), NextHop: addr(nh), Proto: route.ProtoBGP, PeerType: route.PeerEBGP}
	if ibgp {
		r.PeerType = route.PeerIBGP
	}
	return r
}

func TestOfferInstallsAndRecords(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "192.0.2.1", false), 7)
	got, ok := e.tbl.Exact(pfx("10.0.0.0/8"))
	if !ok || got.NextHop != addr("192.0.2.1") || got.AD != 20 {
		t.Fatalf("entry = %+v ok=%v", got, ok)
	}
	ios := e.log.Snapshot()
	if len(ios) != 1 || ios[0].Type != capture.FIBInstall || ios[0].Causes[0] != 7 {
		t.Fatalf("ios = %+v", ios)
	}
}

func TestAdminDistanceArbitration(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(route.Route{Prefix: pfx("10.0.0.0/8"), NextHop: addr("1.1.1.1"), Proto: route.ProtoRIP, Metric: 2})
	e.tbl.Offer(route.Route{Prefix: pfx("10.0.0.0/8"), NextHop: addr("2.2.2.2"), Proto: route.ProtoOSPF, Metric: 20})
	got, _ := e.tbl.Exact(pfx("10.0.0.0/8"))
	if got.Proto != route.ProtoOSPF {
		t.Fatalf("OSPF (AD 110) should beat RIP (AD 120): %+v", got)
	}
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "3.3.3.3", false))
	got, _ = e.tbl.Exact(pfx("10.0.0.0/8"))
	if got.Proto != route.ProtoBGP {
		t.Fatalf("eBGP (AD 20) should win: %+v", got)
	}
	// iBGP (AD 200) must NOT displace OSPF.
	e2 := newEnv()
	e2.tbl.Offer(route.Route{Prefix: pfx("10.0.0.0/8"), NextHop: addr("2.2.2.2"), Proto: route.ProtoOSPF})
	e2.tbl.Offer(bgpRoute("10.0.0.0/8", "3.3.3.3", true))
	got, _ = e2.tbl.Exact(pfx("10.0.0.0/8"))
	if got.Proto != route.ProtoOSPF {
		t.Fatalf("OSPF should beat iBGP: %+v", got)
	}
}

func TestMetricBreaksTiesWithinProtocolReplacement(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(route.Route{Prefix: pfx("10.0.0.0/8"), NextHop: addr("1.1.1.1"), Proto: route.ProtoOSPF, Metric: 30})
	// Same protocol offering again replaces its candidate outright.
	e.tbl.Offer(route.Route{Prefix: pfx("10.0.0.0/8"), NextHop: addr("2.2.2.2"), Proto: route.ProtoOSPF, Metric: 10})
	got, _ := e.tbl.Exact(pfx("10.0.0.0/8"))
	if got.NextHop != addr("2.2.2.2") {
		t.Fatalf("replacement failed: %+v", got)
	}
	if len(e.tbl.candidates[pfx("10.0.0.0/8")]) != 1 {
		t.Fatal("same-protocol offer must replace, not accumulate")
	}
}

func TestNoChurnWhenEntryUnchanged(t *testing.T) {
	e := newEnv()
	r := bgpRoute("10.0.0.0/8", "192.0.2.1", false)
	e.tbl.Offer(r)
	n := e.log.Len()
	e.tbl.Offer(r) // identical re-offer
	if e.log.Len() != n {
		t.Fatal("identical re-offer produced FIB churn")
	}
}

func TestWithdrawFallsBackThenRemoves(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "1.1.1.1", false))
	e.tbl.Offer(route.Route{Prefix: pfx("10.0.0.0/8"), NextHop: addr("2.2.2.2"), Proto: route.ProtoOSPF})
	e.tbl.Withdraw(route.ProtoBGP, pfx("10.0.0.0/8"), 42)
	got, ok := e.tbl.Exact(pfx("10.0.0.0/8"))
	if !ok || got.Proto != route.ProtoOSPF {
		t.Fatalf("fallback = %+v %v", got, ok)
	}
	e.tbl.Withdraw(route.ProtoOSPF, pfx("10.0.0.0/8"))
	if _, ok := e.tbl.Exact(pfx("10.0.0.0/8")); ok {
		t.Fatal("entry survived final withdraw")
	}
	// Withdrawing when nothing is offered must not record anything.
	n := e.log.Len()
	e.tbl.Withdraw(route.ProtoRIP, pfx("10.0.0.0/8"))
	if e.log.Len() != n {
		t.Fatal("no-op withdraw recorded an I/O")
	}
}

func TestWithdrawRecordsRemoveIO(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "1.1.1.1", false))
	e.tbl.Withdraw(route.ProtoBGP, pfx("10.0.0.0/8"), 99)
	ios := e.log.Snapshot()
	last := ios[len(ios)-1]
	if last.Type != capture.FIBRemove || last.Causes[0] != 99 || last.NextHop != addr("1.1.1.1") {
		t.Fatalf("remove IO = %+v", last)
	}
}

func TestOnChangeNotifications(t *testing.T) {
	e := newEnv()
	var updates []Update
	e.tbl.OnChange(func(u Update) { updates = append(updates, u) })
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "1.1.1.1", false))
	e.tbl.Withdraw(route.ProtoBGP, pfx("10.0.0.0/8"))
	if len(updates) != 2 || !updates[0].Install || updates[1].Install {
		t.Fatalf("updates = %+v", updates)
	}
	if updates[0].IO.Type != capture.FIBInstall {
		t.Fatal("update IO missing")
	}
}

func TestLookupLPM(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(route.Route{Prefix: pfx("0.0.0.0/0"), NextHop: addr("1.1.1.1"), Proto: route.ProtoStatic})
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "2.2.2.2", false))
	if got, ok := e.tbl.Lookup(addr("10.5.5.5")); !ok || got.NextHop != addr("2.2.2.2") {
		t.Fatalf("LPM = %+v %v", got, ok)
	}
	if got, ok := e.tbl.Lookup(addr("8.8.8.8")); !ok || got.NextHop != addr("1.1.1.1") {
		t.Fatalf("default = %+v %v", got, ok)
	}
}

func TestEntriesAndSnapshot(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(bgpRoute("20.0.0.0/8", "1.1.1.1", false))
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "1.1.1.1", false))
	snap := e.tbl.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	snap[pfx("10.0.0.0/8")] = Entry{}
	if got, _ := e.tbl.Exact(pfx("10.0.0.0/8")); got.NextHop != addr("1.1.1.1") {
		t.Fatal("snapshot aliases table")
	}
}

func TestNextHopChangeReinstalls(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "1.1.1.1", false))
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "9.9.9.9", false))
	ios := e.log.Snapshot()
	if len(ios) != 2 || ios[1].Type != capture.FIBInstall || ios[1].NextHop != addr("9.9.9.9") {
		t.Fatalf("ios = %+v", ios)
	}
}
