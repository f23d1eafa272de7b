package dist

import (
	"net/netip"
	"testing"

	"hbverify/internal/dataplane"
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
	f := startFleet(t, pn.Network)
	sources := []string{"r1", "r2", "r3"}
	ck := verify.NewChecker(nil, sources)
	ck.Cache = verify.NewWalkCache()
	policies := []verify.Policy{
		{Kind: verify.Reachable, Prefix: pn.P},
		{Kind: verify.NoLoop, Prefix: qClass},
	}

	// Full round: every walk travels, and the reported Frames/Bytes are
	// exactly the fleet wire delta observed around the call.
	f0, b0 := f.Wire()
	full, err := f.Verify(ck, policies)
	if err != nil {
		t.Fatal(err)
	}
	f1, b1 := f.Wire()
	if full.Frames != int(f1-f0) || full.Bytes != int(b1-b0) {
		t.Fatalf("full round: stats frames/bytes %d/%d, wire delta %d/%d", full.Frames, full.Bytes, f1-f0, b1-b0)
	}
	if full.Frames == 0 || full.Bytes == 0 || full.Walks != 6 || full.Report.Cached != 0 {
		t.Fatalf("full round stats = %+v", full)
	}

	// All-cache-hit round: the warm walk cache answers everything, zero
	// frames and zero bytes on the wire.
	warm, err := f.Verify(ck, policies)
	if err != nil {
		t.Fatal(err)
	}
	f2, b2 := f.Wire()
	if f2 != f1 || b2 != b1 {
		t.Fatalf("cache-hit round touched the wire: %d frames, %d bytes", f2-f1, b2-b1)
	}
	if warm.Frames != 0 || warm.Bytes != 0 || warm.Report.Cached != 6 || warm.Walks != 6 {
		t.Fatalf("cache-hit stats = %+v", warm)
	}

	// Local-check suppressed round: labels pushed, then a sync of one
	// changed router costs exactly two frames — the view delta out and
	// the (empty-violation) local report back.
	if err := f.relabel([]netip.Prefix{pn.P, qClass}); err != nil {
		t.Fatal(err)
	}
	v := viewsOf(pn.Network)["r2"]
	grown := edited(v, nil, fib.Entry{Prefix: pfx("192.0.2.0/28"), NextHop: v.Loopback()})
	f4, b4 := f.Wire()
	if err := ship(f, map[string]*dataplane.Frozen{"r2": grown}); err != nil {
		t.Fatal(err)
	}
	f5, b5 := f.Wire()
	if classes, all := tainted(f); len(classes) != 0 || all {
		t.Fatalf("quiet sync tainted %v (all: %v)", classes, all)
	}
	if f5-f4 != 2 {
		t.Fatalf("sync of one changed router cost %d frames (want 2: delta + report), %d bytes", f5-f4, b5-b4)
	}

	// Quiet local round: every pair certified locally, zero wire cost,
	// and the stats still reconcile with the fleet counters.
	lck := verify.NewChecker(nil, sources)
	lck.Certified = f.certificate()
	local, err := f.Verify(lck, policies)
	if err != nil {
		t.Fatal(err)
	}
	f6, b6 := f.Wire()
	if local.Frames != int(f6-f5) || local.Bytes != int(b6-b5) {
		t.Fatalf("local round: stats frames/bytes %d/%d, wire delta %d/%d", local.Frames, local.Bytes, f6-f5, b6-b5)
	}
	if local.Frames != 0 || local.Bytes != 0 || local.LocalCertified != 6 || local.Escalated != 0 {
		t.Fatalf("local round stats = %+v", local)
	}
}
