package dist

import (
	"net/netip"
	"testing"
	"time"

	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

// TestStatsWireAccounting pins down the exact Frames/Bytes deltas a
// verification round reports under the two ways a round stays off the
// wire: walks answered by the walk cache, and checks answered by a
// local-check certificate. Stats.Frames/Bytes must always equal the fleet-wide
// transport counter delta across the call — no more, no less.
func TestStatsWireAccounting(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	coord, nodes, teardown, err := BuildFleet(pn.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	sources := []string{"r1", "r2", "r3"}
	ck := verify.NewChecker(nil, sources)
	ck.Cache = verify.NewWalkCache()
	policies := []verify.Policy{
		{Kind: verify.Reachable, Prefix: pn.P},
		{Kind: verify.NoLoop, Prefix: qClass},
	}

	// Full round: every walk travels, and the reported Frames/Bytes are
	// exactly the fleet wire delta observed around the call.
	f0, b0 := coord.FleetWire(nodes)
	full, err := coord.Round(ck, nodes, policies, VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f1, b1 := coord.FleetWire(nodes)
	if full.Frames != int(f1-f0) || full.Bytes != int(b1-b0) {
		t.Fatalf("full round: stats frames/bytes %d/%d, wire delta %d/%d", full.Frames, full.Bytes, f1-f0, b1-b0)
	}
	if full.Frames == 0 || full.Bytes == 0 || full.Walks != 6 || full.Report.Cached != 0 {
		t.Fatalf("full round stats = %+v", full)
	}

	// All-cache-hit round: the warm walk cache answers everything, zero
	// frames and zero bytes on the wire.
	warm, err := coord.Round(ck, nodes, policies, VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f2, b2 := coord.FleetWire(nodes)
	if f2 != f1 || b2 != b1 {
		t.Fatalf("cache-hit round touched the wire: %d frames, %d bytes", f2-f1, b2-b1)
	}
	if warm.Frames != 0 || warm.Bytes != 0 || warm.Report.Cached != 6 || warm.Walks != 6 {
		t.Fatalf("cache-hit stats = %+v", warm)
	}

	// Local-check suppressed round: labels pushed, then a sync of one
	// dirty router costs exactly two frames — the view delta out and
	// the (empty-violation) local report back.
	if _, err := coord.Relabel(nodes, []netip.Prefix{pn.P, qClass}); err != nil {
		t.Fatal(err)
	}
	views := viewsOf(pn.Network)
	v := views["r2"]
	grown := LocalView{Router: v.Router, Loopback: v.Loopback, Ifaces: v.Ifaces, FIB: map[netip.Prefix]fib.Entry{}}
	for p, e := range v.FIB {
		grown.FIB[p] = e
	}
	grown.FIB[pfx("192.0.2.0/28")] = fib.Entry{Prefix: pfx("192.0.2.0/28"), NextHop: v.Loopback}
	views["r2"] = grown
	f4, b4 := coord.FleetWire(nodes)
	res, err := coord.SyncViews(nodes, views, []string{"r2"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f5, b5 := coord.FleetWire(nodes)
	if res.Sent != 1 || len(res.Reports) != 1 || res.Stale != 0 || len(res.Violations) != 0 {
		t.Fatalf("sync = %+v", res)
	}
	if f5-f4 != 2 {
		t.Fatalf("sync of one dirty router cost %d frames (want 2: delta + report), %d bytes", f5-f4, b5-b4)
	}

	// Quiet local round: every pair certified locally, zero wire cost,
	// and the stats still reconcile with the fleet counters.
	local, err := coord.VerifyLocal(nodes, policies, sources, VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	f6, b6 := coord.FleetWire(nodes)
	if local.Frames != int(f6-f5) || local.Bytes != int(b6-b5) {
		t.Fatalf("local round: stats frames/bytes %d/%d, wire delta %d/%d", local.Frames, local.Bytes, f6-f5, b6-b5)
	}
	if local.Frames != 0 || local.Bytes != 0 || local.LocalCertified != 6 || local.Escalated != 0 {
		t.Fatalf("local round stats = %+v", local)
	}
}
