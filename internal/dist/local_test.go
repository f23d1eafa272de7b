package dist

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/localck"
	"hbverify/internal/network"
	"hbverify/internal/verify"
	"hbverify/internal/wire"
)

// tainted returns the classes local violations have flagged since the last
// relabel, and whether every class is tainted (a report at another label
// epoch, or a delta no node acknowledged).
func tainted(f *Fleet) ([]netip.Prefix, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]netip.Prefix, 0, len(f.taint))
	for p := range f.taint {
		out = append(out, p)
	}
	return out, f.taintAll
}

// qClass is a second forwarding class for the paper net: r3's loopback,
// reachable from every internal router over the OSPF triangle.
var qClass = netip.MustParsePrefix("3.3.3.3/32")

func localPolicies(p, q netip.Prefix) []verify.Policy {
	return []verify.Policy{
		{Kind: verify.Reachable, Prefix: p},
		{Kind: verify.NoLoop, Prefix: p},
		{Kind: verify.NoBlackhole, Prefix: p},
		{Kind: verify.Reachable, Prefix: q},
		{Kind: verify.NoLoop, Prefix: q},
		{Kind: verify.NoBlackhole, Prefix: q},
	}
}

func TestLocalCheckQuietRoundCertifiesWithoutFrames(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	policies := localPolicies(pn.P, qClass)
	sources := []string{"r1", "r2", "r3"}

	// The first round walks everything, then derives and pushes labels
	// from the verified epoch.
	full, err := f.VerifyLocal(verify.NewChecker(nil, sources), policies)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Report.OK() || !full.Relabeled || full.LocalCertified != 0 {
		t.Fatalf("full round: %+v", full)
	}
	if f.labelEpoch() != 1 {
		t.Fatalf("epoch = %d", f.labelEpoch())
	}

	// No churn: nothing is noted, so no delta travels, every check is
	// certified locally, and the whole round puts nothing on the wire.
	stats, err := f.VerifyLocal(verify.NewChecker(nil, sources), policies)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Relabeled {
		t.Fatalf("second round relabeled: %+v", stats)
	}
	want := len(policies) * len(sources)
	if stats.LocalCertified != want || stats.Escalated != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Frames != 0 || stats.Bytes != 0 {
		t.Fatalf("certified round touched the wire: %+v", stats)
	}
	if stats.Report.Checked != want || !stats.Report.OK() {
		t.Fatalf("report = %+v", stats.Report)
	}
	if got := stats.Report.Results(); len(got) != want || !got[0].Certified {
		t.Fatalf("results = %d, first %+v", len(got), got[0])
	}
}

func TestLocalCheckViolationEscalatesTargetedWalks(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	policies := localPolicies(pn.P, qClass)
	sources := []string{"r1", "r2", "r3"}
	if _, err := f.Verify(verify.NewChecker(nil, sources), policies); err != nil {
		t.Fatal(err)
	}
	if err := f.relabel([]netip.Prefix{pn.P, qClass}); err != nil {
		t.Fatal(err)
	}

	// Withdraw every P-covering entry from r2's view: an in-flight update
	// that blackholes P at r2. The node's local check must flag it.
	rep := dataplane.Representative(pn.P)
	v := viewsOf(pn.Network)["r2"]
	cut := edited(v, func(p netip.Prefix) bool { return !p.Contains(rep) })

	f0, _ := f.Wire()
	if err := ship(f, map[string]LocalView{"r2": cut}); err != nil {
		t.Fatal(err)
	}
	if f1, _ := f.Wire(); f1-f0 != 2 {
		t.Fatalf("sync of r2 cost %d frames, want 2: the delta and its report", f1-f0)
	}
	// P alone is flagged: the quiet class Q is not.
	if tc, all := tainted(f); len(tc) != 1 || tc[0] != pn.P || all {
		t.Fatalf("tainted = %v (all: %v)", tc, all)
	}

	// The hybrid round certifies Q and escalates only P's checks, whose
	// targeted walks now see the blackhole.
	ck := verify.NewChecker(nil, sources)
	ck.Certified = f.certificate()
	stats, err := f.Verify(ck, policies)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocalCertified != 9 || stats.Escalated != 9 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.LocalViolations != 1 {
		t.Fatalf("local violations = %d", stats.LocalViolations)
	}
	if len(stats.Report.Results()) != 18 || stats.Report.Checked != 18 {
		t.Fatalf("results %d checked %d", len(stats.Report.Results()), stats.Report.Checked)
	}
	if stats.Frames == 0 {
		t.Fatal("escalated round must touch the wire")
	}
	// The escalated walks find the blackhole the local check predicted.
	sawViolation := false
	for _, viol := range stats.Report.Violations {
		if viol.Policy.Prefix != pn.P {
			t.Fatalf("violation on certified class: %+v", viol)
		}
		sawViolation = true
	}
	if !sawViolation {
		t.Fatal("escalated walks found no violation")
	}

	// A fresh relabel clears the taint.
	if err := f.relabel([]netip.Prefix{pn.P, qClass}); err != nil {
		t.Fatal(err)
	}
	if tc, all := tainted(f); len(tc) != 0 || all {
		t.Fatalf("taint survived relabel: %v (all: %v)", tc, all)
	}
}

func TestLocalCheckWithoutLabelsEscalatesEverything(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	policies := localPolicies(pn.P, qClass)
	sources := []string{"r1", "r2", "r3"}
	ck := verify.NewChecker(nil, sources)
	ck.Certified = f.certificate()
	stats, err := f.Verify(ck, policies)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocalCertified != 0 || stats.Escalated != 18 {
		t.Fatalf("label-less stats = %+v", stats)
	}
	if !stats.Report.OK() || stats.Report.Checked != 18 {
		t.Fatalf("report = %+v", stats.Report)
	}
}

func TestLocalCheckStaleEpochTaintsRound(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	// Force a delta without ever pushing labels: nodes acknowledge at
	// epoch 0, which must read as stale.
	v := viewsOf(pn.Network)["r1"]
	grown := edited(v, nil, fib.Entry{Prefix: pfx("192.0.2.0/28"), NextHop: v.Loopback})
	f0, _ := f.Wire()
	if err := ship(f, map[string]LocalView{"r1": grown}); err != nil {
		t.Fatal(err)
	}
	if f1, _ := f.Wire(); f1-f0 != 2 {
		t.Fatalf("sync of r1 cost %d frames, want 2: the delta and its report", f1-f0)
	}
	if _, all := tainted(f); !all {
		t.Fatal("a report at epoch 0 left the round untainted")
	}
}

func TestLabelsCodecRoundTrip(t *testing.T) {
	nl := localck.NodeLabels{
		Epoch: 9,
		Own:   map[netip.Prefix]int{pfx("203.0.113.0/24"): 2, pfx("198.51.100.0/24"): 0},
		Peers: map[string]map[netip.Prefix]int{
			"b": {pfx("203.0.113.0/24"): 1},
			"c": {pfx("203.0.113.0/24"): 0, pfx("198.51.100.0/24"): 3},
		},
	}
	frame := appendLabels(nil, "a", nl)
	r := wire.NewReader(frame[2:])
	router, got := readLabels(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if router != "a" || got.Epoch != 9 {
		t.Fatalf("router %q epoch %d", router, got.Epoch)
	}
	if !reflect.DeepEqual(got.Own, nl.Own) {
		t.Fatalf("own = %v", got.Own)
	}
	// Peer maps only carry labels for the encoded class universe; absent
	// entries must read as Unreachable.
	if got.PeerLabel("b", pfx("203.0.113.0/24")) != 1 ||
		got.PeerLabel("b", pfx("198.51.100.0/24")) != localck.Unreachable ||
		got.PeerLabel("c", pfx("198.51.100.0/24")) != 3 {
		t.Fatalf("peers = %v", got.Peers)
	}
}

func TestLocalReportCodecRoundTrip(t *testing.T) {
	rep := LocalReport{
		Sync: 42, Router: "r2", Epoch: 3, Checked: 2,
		Violations: []localck.Violation{
			{Router: "r2", Prefix: pfx("203.0.113.0/24"), Invariant: localck.InvLabelMonotone,
				SuspectHops: []netip.Addr{addr("10.0.0.1"), addr("10.0.0.2")}, Detail: "next router r3 label 2 >= own label 2"},
			{Router: "r2", Prefix: pfx("198.51.100.0/24"), Invariant: localck.InvNoRoute, Detail: "gone"},
		},
	}
	frame := appendLocalReport(nil, &rep)
	r := wire.NewReader(frame[2:])
	got := readLocalReport(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, rep)
	}
}

func TestViewDeltaSyncFieldRoundTrip(t *testing.T) {
	d := viewDelta{Router: "r1", Removes: []netip.Prefix{pfx("203.0.113.0/24")}, Sync: 77}
	frame := appendViewDelta(nil, &d)
	r := wire.NewReader(frame[2:])
	got := readViewDelta(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if got.Sync != 77 || got.Router != "r1" || len(got.Removes) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestConcurrentLocalChecksSyncAndEscalation is the race-coverage test:
// syncs churning one router's view, hybrid verify rounds
// escalating on the resulting taint, and periodic relabels all run
// concurrently against one fleet.
func TestConcurrentLocalChecksSyncAndEscalation(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	policies := localPolicies(pn.P, qClass)
	sources := []string{"r1", "r2", "r3"}
	classes := []netip.Prefix{pn.P, qClass}
	if _, err := f.Verify(verify.NewChecker(nil, sources), policies); err != nil {
		t.Fatal(err)
	}
	if err := f.relabel(classes); err != nil {
		t.Fatal(err)
	}

	healthy := viewsOf(pn.Network)
	rep := dataplane.Representative(pn.P)
	v := healthy["r2"]
	broken := make(map[string]LocalView, len(healthy))
	for name, lv := range healthy {
		broken[name] = lv
	}
	cut := edited(v, func(p netip.Prefix) bool { return !p.Contains(rep) })
	broken["r2"] = cut

	const iters = 8
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			vs := healthy
			if i%2 == 1 {
				vs = broken
			}
			if err := ship(f, map[string]LocalView{"r2": vs["r2"]}); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ck := verify.NewChecker(nil, sources)
			ck.Certified = f.certificate()
			if _, err := f.Verify(ck, policies); err != nil {
				t.Errorf("verify local: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			if err := f.relabel(classes); err != nil {
				t.Errorf("relabel: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
