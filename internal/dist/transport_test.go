package dist

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/verify"
	"hbverify/internal/wire"
)

func TestBinaryWalkBatchRoundTrip(t *testing.T) {
	walks := []WalkMsg{
		{
			WalkID: 42,
			Source: "r1", Dst: addr("10.0.0.1"),
			Path: []string{"r1", "r2"}, Hops: 2, Msgs: 3,
			Outcome: dataplane.Looped, Done: true, Egress: "r2", Err: "boom",
		},
		{WalkID: 43, Source: "r9", Dst: addr("192.168.0.1")},
	}
	payload := appendWalkBatch(nil, mtWalkBatch, 7, walks)
	if payload[0] != frameV1 || payload[1] != mtWalkBatch {
		t.Fatalf("header = %v", payload[:2])
	}
	r := wire.NewReader(payload[2:])
	id, got := readWalkBatch(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if id != 7 {
		t.Fatalf("batch id = %d", id)
	}
	if !reflect.DeepEqual(got, walks) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, walks)
	}
}

func TestBinaryViewDeltaRoundTrip(t *testing.T) {
	d := viewDelta{
		Router: "r1",
		Installs: []fib.Entry{
			{Prefix: pfx("10.0.0.0/8"), NextHop: addr("192.168.1.2"), OutIface: "eth0", Proto: route.ProtoBGP, AD: 20, Metric: 100},
			{Prefix: pfx("0.0.0.0/0"), OutIface: "eth1"},
		},
		Removes:  []netip.Prefix{pfx("172.16.0.0/12")},
		HasIface: true,
		Ifaces: []dataplane.Iface{
			{Name: "eth0", Addr: addr("192.168.1.1"), Prefix: pfx("192.168.1.0/30"),
				PeerAddr: addr("192.168.1.2"), PeerName: "r2", Up: true},
			{Name: "lo", Addr: addr("1.1.1.1"), Prefix: pfx("1.1.1.1/32"), Stub: true, Up: false},
		},
	}
	payload := appendViewDelta(nil, &d)
	r := wire.NewReader(payload[2:])
	got := readViewDelta(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
	}
}

func TestBinaryProvRoundTrip(t *testing.T) {
	q := ProvQuery{
		QueryID: 3, Cursor: 99, Hops: 12, Done: true, Err: "nope",
		Path: []capture.IO{{
			ID: 7, Router: "r2", Type: 2, Proto: route.ProtoBGP,
			Prefix: pfx("10.0.0.0/8"), NextHop: addr("9.9.9.9"),
			Peer: "r1", PeerAddr: addr("192.168.1.1"),
			Attrs: route.BGPAttrs{
				LocalPref: 200, ASPath: []uint32{65001, 65002}, MED: 5, Origin: 1,
				Communities: []uint32{1, 2}, OriginatorID: addr("2.2.2.2"),
				ClusterList: []netip.Addr{addr("3.3.3.3")},
			},
			Detail: "withdrawn", Time: -4, TrueTime: 17, Causes: []uint64{1, 2, 3},
		}},
	}
	payload := appendProv(nil, mtProv, &q)
	r := wire.NewReader(payload[2:])
	got := readProv(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !reflect.DeepEqual(got, q) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, q)
	}
}

func TestTruncatedBinaryFrameRejected(t *testing.T) {
	walks := []WalkMsg{{WalkID: 1, Source: "r1", Dst: addr("10.0.0.1")}}
	payload := appendWalkBatch(nil, mtWalkBatch, 1, walks)
	for cut := 2; cut < len(payload); cut += 3 {
		r := wire.NewReader(payload[2:cut])
		readWalkBatch(r)
		if r.Err() == nil && cut < len(payload) {
			t.Fatalf("truncation at %d of %d accepted", cut, len(payload))
		}
	}
}

// TestDeadNodeDegradesToError kills a node mid-fleet and requires Verify to
// come back with reported errors within the deadline instead of hanging.
func TestDeadNodeDegradesToError(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	coord, nodes, teardown, err := BuildFleet(pn.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	if err := nodes["r2"].Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stats, err := coord.VerifyWith(nodes, []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
	}, []string{"r1", "r2", "r3"}, VerifyOpts{Timeout: 2 * time.Second})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dead node went unreported")
	}
	if stats.Report.Errors == 0 || stats.Report.OK() {
		t.Fatalf("stats = %+v", stats)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("verify took %v, deadline not enforced", elapsed)
	}
	failed := 0
	for _, r := range stats.Report.Results() {
		if r.Err != nil {
			failed++
		}
	}
	if failed != stats.Report.Errors {
		t.Fatalf("errors %d but %d results carry Err", stats.Report.Errors, failed)
	}
}

// TestCacheSkippedWalks verifies a warm walk cache answers the whole round
// without any frames hitting the wire.
func TestCacheSkippedWalks(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	coord, nodes, teardown, err := BuildFleet(pn.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	cache := verify.NewWalkCache()
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	ck := verify.NewChecker(nil, []string{"r1", "r2", "r3"})
	ck.Cache = cache

	cold, err := coord.Round(ck, nodes, policies, VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report.Cached != 0 || cold.Frames == 0 {
		t.Fatalf("cold stats = %+v", cold)
	}
	warm, err := coord.Round(ck, nodes, policies, VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.Cached != 3 || warm.Frames != 0 || warm.Bytes != 0 {
		t.Fatalf("warm stats = %+v", warm)
	}
	if warm.Report.Checked != 3 || !warm.Report.OK() {
		t.Fatalf("warm report = %+v", warm.Report)
	}
	// Invalidation makes the walks travel again.
	cache.InvalidateRouter("r2")
	third, err := coord.Round(ck, nodes, policies, VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if third.Frames == 0 {
		t.Fatalf("post-invalidation stats = %+v", third)
	}
}

// TestSyncViewsShipsDeltas reconfigures the network and checks that a
// SyncViews round brings the fleet's verdicts up to date, and that an
// unchanged fleet costs zero frames to sync.
func TestSyncViewsShipsDeltas(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	coord, nodes, teardown, err := BuildFleet(pn.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	sources := []string{"r1", "r2", "r3"}

	// In-sync fleet: syncing again ships nothing.
	if res, err := coord.SyncViews(nodes, viewsOf(pn.Network), nil, 0); err != nil || res.Sent != 0 {
		t.Fatalf("no-op sync sent %d frames, err %v", res.Sent, err)
	}

	stats, err := coord.Verify(nodes, policies, sources)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Report.OK() {
		t.Fatalf("pre-change report = %+v", stats.Report)
	}

	// Deprefer the e2 exit; the live network moves egress away from e2.
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}

	// Nodes still hold the old views: the fleet still believes e2.
	stale, err := coord.Verify(nodes, policies, sources)
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Report.OK() {
		t.Fatalf("unsynced fleet already sees the change: %+v", stale.Report)
	}

	res, err := coord.SyncViews(nodes, viewsOf(pn.Network), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || len(res.Reports) != res.Sent {
		t.Fatal("no delta frames sent for a changed network")
	}
	fresh, err := coord.Verify(nodes, policies, sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Report.Violations) != 3 {
		t.Fatalf("post-sync report = %+v", fresh.Report)
	}
}

// TestDropBatchFaultInjection proves the DropBatch hook actually loses
// work: dropped walks come back empty and diverge from the healthy run.
func TestDropBatchFaultInjection(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	coord, nodes, teardown, err := BuildFleet(pn.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	stats, err := coord.VerifyWith(nodes, []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
	}, []string{"r1", "r2", "r3"}, VerifyOpts{
		DropBatch: func(src string, walks int) bool { return src == "r1" },
	})
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, r := range stats.Report.Results() {
		if r.Source == "r1" && len(r.Walk.Path) == 0 {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatalf("drop-batch hook had no effect: %+v", stats.Report.Results())
	}
	if stats.Report.OK() {
		t.Fatalf("dropped batch produced a clean report: %+v", stats.Report)
	}
}

// TestPerNodeLatencyTimers checks the metrics surface: per-node timers and
// dist counters appear after a round.
func TestPerNodeLatencyTimers(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	coord, nodes, teardown, err := BuildFleet(pn.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	reg := metrics.NewRegistry()
	if _, err := coord.VerifyWith(nodes, []verify.Policy{
		{Kind: verify.NoLoop, Prefix: pn.P},
	}, []string{"r1", "r2", "r3"}, VerifyOpts{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["dist.walks"] != 3 || snap["dist.batches"] == 0 || snap["dist.bytes"] == 0 {
		t.Fatalf("snapshot = %v", snap)
	}
	timed := int64(0)
	for _, src := range []string{"r1", "r2", "r3"} {
		timed += reg.Timer("dist.node." + src).Count()
	}
	if timed != 3 {
		t.Fatalf("per-node timer observations = %d, want 3 (%v)", timed, snap)
	}
	if reg.Gauge("dist.window.inflight").Max() == 0 {
		t.Fatalf("in-flight gauge never rose: %v", snap)
	}
}
