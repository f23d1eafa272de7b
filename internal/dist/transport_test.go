package dist

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

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
			Source: "r1", Dst: addr("10.0.0.1"), Hops: 2, Msgs: 3, Err: "boom",
			Frontier: []FrontierHop{{Router: "r3", Depth: 2}},
			Exps: []ExpMsg{
				{Router: "r1", Expansion: dataplane.Expansion{Nexts: []string{"r2", "r3"}}},
				{Router: "r2", Expansion: dataplane.Expansion{Delivered: true, Stuck: true}},
			},
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
			{Prefix: pfx("10.0.0.0/8"), NextHop: addr("192.168.1.2"), Proto: route.ProtoBGP},
			{Prefix: pfx("0.0.0.0/0")},
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
// come back with reported errors well before the walk deadline: the dead
// node's own walks fail to submit, and the walks its neighbours cannot
// forward to it come back to the fleet with the send error.
func TestDeadNodeDegradesToError(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	if err := f.Node("r2").Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stats, err := f.Verify(verify.NewChecker(nil, []string{"r1", "r2", "r3"}), []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dead node went unreported")
	}
	if stats.Report.Errors == 0 || stats.Report.OK() {
		t.Fatalf("stats = %+v", stats)
	}
	if elapsed > walkTimeout/2 {
		t.Fatalf("verify took %v of the %v walk deadline: a walk was lost, not returned", elapsed, walkTimeout)
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
	f := startFleet(t, pn.Network)
	cache := verify.NewWalkCache()
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	ck := verify.NewChecker(nil, []string{"r1", "r2", "r3"})
	ck.Cache = cache

	cold, err := f.Verify(ck, policies)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report.Cached != 0 || cold.Frames == 0 {
		t.Fatalf("cold stats = %+v", cold)
	}
	warm, err := f.Verify(ck, policies)
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
	third, err := f.Verify(ck, policies)
	if err != nil {
		t.Fatal(err)
	}
	if third.Frames == 0 {
		t.Fatalf("post-invalidation stats = %+v", third)
	}
}

// TestSyncViewsShipsDeltas reconfigures the network and checks that a
// sync brings the fleet's verdicts up to date, and that an
// unchanged fleet costs zero frames to sync.
func TestSyncViewsShipsDeltas(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	sources := []string{"r1", "r2", "r3"}

	// In-sync fleet: syncing again ships nothing.
	f0, _ := f.Wire()
	if err := ship(f, viewsOf(pn.Network)); err != nil {
		t.Fatal(err)
	}
	if f1, _ := f.Wire(); f1 != f0 {
		t.Fatalf("no-op sync sent %d frames", f1-f0)
	}

	stats, err := f.Verify(verify.NewChecker(nil, sources), policies)
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
	stale, err := f.Verify(verify.NewChecker(nil, sources), policies)
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Report.OK() {
		t.Fatalf("unsynced fleet already sees the change: %+v", stale.Report)
	}

	f2, _ := f.Wire()
	if err := ship(f, viewsOf(pn.Network)); err != nil {
		t.Fatal(err)
	}
	if f3, _ := f.Wire(); f3 == f2 || (f3-f2)%2 != 0 {
		t.Fatalf("sync of a changed network cost %d frames, want a delta and a report per changed router", f3-f2)
	}
	fresh, err := f.Verify(verify.NewChecker(nil, sources), policies)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Report.Violations) != 3 {
		t.Fatalf("post-sync report = %+v", fresh.Report)
	}
}

// TestDropBatchFaultInjection: every walk of a fleet round comes back with
// what its nodes collected, so none replays as stuck at its source and the
// round's report is clean. The drop-batch mutation in .github/mutate.go
// loses the batches bound for one node while reporting them returned.
func TestDropBatchFaultInjection(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	stats, err := f.Verify(verify.NewChecker(nil, []string{"r1", "r2", "r3"}), []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range stats.Report.Results() {
		if r.Walk.Outcome == dataplane.Stuck && reflect.DeepEqual(r.Walk.Path, []string{r.Source}) {
			t.Fatalf("walk from %s stuck at its source: %+v", r.Source, r.Walk)
		}
	}
	if !stats.Report.OK() {
		t.Fatalf("round report = %+v, want clean", stats.Report)
	}
}

// TestPerNodeLatencyTimers checks the metrics surface: per-node timers and
// dist counters appear after a round.
func TestPerNodeLatencyTimers(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	reg := metrics.NewRegistry()
	f, err := NewFleet(pn.Network, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Verify(verify.NewChecker(nil, []string{"r1", "r2", "r3"}), []verify.Policy{
		{Kind: verify.NoLoop, Prefix: pn.P},
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.String()
	if reg.Counter("dist.walks").Value() != 3 || reg.Counter("dist.batches").Value() == 0 || reg.Counter("dist.bytes").Value() == 0 {
		t.Fatalf("metrics = %v", snap)
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
