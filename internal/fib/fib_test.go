package fib

import (
	"net/netip"
	"reflect"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
	"hbverify/internal/trie"
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
	if !ok || got.NextHop != addr("192.0.2.1") || got.Proto != route.ProtoBGP {
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

// A winner that differs from the installed entry in metric alone forwards
// exactly as before: no FIB I/O is recorded and no listener hears of it.
func TestMetricOnlyOfferIsNoChange(t *testing.T) {
	e := newEnv()
	var updates []Update
	e.tbl.OnChange(func(u Update) { updates = append(updates, u) })
	r := route.Route{Prefix: pfx("10.0.0.0/8"), NextHop: addr("1.1.1.1"), Proto: route.ProtoOSPF, Metric: 30}
	e.tbl.Offer(r)
	n := e.log.Len()
	r.Metric = 10
	if _, changed := e.tbl.Offer(r, 5); changed {
		t.Fatal("metric-only offer reported a change")
	}
	if e.log.Len() != n || len(updates) != 1 {
		t.Fatalf("metric-only offer recorded %d I/Os and fired %d updates", e.log.Len()-n, len(updates)-1)
	}
	// The candidate keeps the new metric for later arbitration.
	if c := e.tbl.candidates[pfx("10.0.0.0/8")]; len(c) != 1 || c[0].Metric != 10 {
		t.Fatalf("candidates = %+v", c)
	}
}

// Replaying a table's FIB I/Os through EntryOf rebuilds it exactly.
func TestEntryOfInvertsEmit(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "1.1.1.1", false))
	e.tbl.Offer(route.Route{Prefix: pfx("20.0.0.0/8"), Proto: route.ProtoOSPF}.WithNextHops(addr("3.3.3.3"), addr("2.2.2.2")))
	e.tbl.Offer(route.Route{Prefix: pfx("30.0.0.0/8"), Proto: route.ProtoConnected})
	e.tbl.Offer(route.Route{Prefix: pfx("40.0.0.0/8"), NextHop: addr("4.4.4.4"), Proto: route.ProtoStatic})
	e.tbl.Withdraw(route.ProtoStatic, pfx("40.0.0.0/8"))
	replayed := trie.New[Entry]()
	for _, io := range e.log.Snapshot() {
		if io.Type == capture.FIBInstall {
			_ = replayed.Insert(io.Prefix, EntryOf(&io))
		} else {
			replayed.Delete(io.Prefix)
		}
	}
	if installs, removes := Diff(e.tbl, trieFIB{replayed}); len(installs)+len(removes) != 0 || replayed.Len() != 3 {
		t.Fatalf("replay differs from the table: installs %v, removes %v", installs, removes)
	}
}

// trieFIB reads a trie of entries as a FIB.
type trieFIB struct{ *trie.Trie[Entry] }

func (t trieFIB) Lookup(dst netip.Addr) (Entry, bool) {
	e, _, ok := t.Trie.Lookup(dst)
	return e, ok
}

func TestDiffInPrefixOrder(t *testing.T) {
	old, cur := trie.New[Entry](), trie.New[Entry]()
	for _, s := range []string{"10.0.0.0/8", "10.0.0.0/16", "20.0.0.0/8", "30.0.0.0/8"} {
		_ = old.Insert(pfx(s), Entry{Prefix: pfx(s), NextHop: addr("1.1.1.1"), Proto: route.ProtoStatic})
	}
	for _, s := range []string{"30.0.0.0/8", "10.1.0.0/16", "10.0.0.0/16", "5.0.0.0/8"} {
		_ = cur.Insert(pfx(s), Entry{Prefix: pfx(s), NextHop: addr("1.1.1.1"), Proto: route.ProtoStatic})
	}
	_ = cur.Insert(pfx("10.0.0.0/16"), Entry{Prefix: pfx("10.0.0.0/16"), NextHop: addr("2.2.2.2"), Proto: route.ProtoStatic})
	installs, removes := Diff(trieFIB{old}, trieFIB{cur})
	var got []string
	for _, e := range installs {
		got = append(got, e.String())
	}
	want := []string{"5.0.0.0/8 via 1.1.1.1 (static)", "10.0.0.0/16 via 2.2.2.2 (static)", "10.1.0.0/16 via 1.1.1.1 (static)"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("installs = %q, want %q", got, want)
	}
	if !reflect.DeepEqual(removes, []netip.Prefix{pfx("10.0.0.0/8"), pfx("20.0.0.0/8")}) {
		t.Fatalf("removes = %v", removes)
	}
	if installs, removes := Diff(trieFIB{trie.New[Entry]()}, trieFIB{cur}); len(installs) != 4 || len(removes) != 0 {
		t.Fatalf("Diff(empty, cur) = %v, %v", installs, removes)
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

func TestNextHopChangeReinstalls(t *testing.T) {
	e := newEnv()
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "1.1.1.1", false))
	e.tbl.Offer(bgpRoute("10.0.0.0/8", "9.9.9.9", false))
	ios := e.log.Snapshot()
	if len(ios) != 2 || ios[1].Type != capture.FIBInstall || ios[1].NextHop != addr("9.9.9.9") {
		t.Fatalf("ios = %+v", ios)
	}
}
