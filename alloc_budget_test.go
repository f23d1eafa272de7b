package hbverify

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/netsim"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/serve"
	"hbverify/internal/snapshot"
	"hbverify/internal/verify"
)

// TestInferenceAllocationBudget holds the property the inference kernel is
// built around, as bytes rather than a timing: one pass over the log
// allocates words per event plus the one copy the graph owns, and a
// consistency check allocates words per vertex. A by-value helper or a
// second copy of the log anywhere on the path — an event is 320 bytes —
// breaks the first bound; a per-FIB-update provenance query or a Nodes()
// call breaks the second.
func TestInferenceAllocationBudget(t *testing.T) {
	const eventBytes = 320
	// r0's log stops halfway, so the check below has missing sends to find.
	all := benchInferLog(42, 20_000, 12)
	ios := snapshot.Collect(all, snapshot.Cut{"r0": all[len(all)/2].Time})
	var g *hbg.Graph
	infer := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g = hbr.Rules{}.Infer(ios)
		}
	})
	if got, budget := infer.AllocedBytesPerOp()/int64(len(ios)), int64(2*eventBytes); got > budget {
		t.Errorf("Rules inference allocates %d B per event, budget %d", got, budget)
	}
	if g.NodeCount() != len(ios) || g.EdgeCount() < len(ios)/2 {
		t.Fatalf("inferred %d nodes and %d edges over %d events", g.NodeCount(), g.EdgeCount(), len(ios))
	}
	var res snapshot.Result
	check := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res = snapshot.Check(g, nil)
		}
	})
	if got, budget := check.AllocedBytesPerOp()/int64(g.NodeCount()), int64(96); got > budget {
		t.Errorf("snapshot.Check allocates %d B per vertex, budget %d", got, budget)
	}
	if res.Consistent || len(res.Missing) == 0 {
		t.Fatalf("check over a cut log found nothing missing: %+v", res)
	}
	t.Logf("inference %d B/event (%d allocs), check %d B/vertex, %d missing",
		infer.AllocedBytesPerOp()/int64(len(ios)), infer.AllocsPerOp(), check.AllocedBytesPerOp()/int64(g.NodeCount()), len(res.Missing))
}

// TestDerivedGraphAllocationBudget holds the derive path to what it is for:
// answering a collected cut of the cached log allocates an index's words per
// event, a pointer per vertex and copies of the few vertices the cut touches
// — never a copy of the log or of the graph (an event is 320 bytes, a vertex
// 384).
func TestDerivedGraphAllocationBudget(t *testing.T) {
	all := benchInferLog(42, 20_000, 12)
	inc := hbr.NewIncremental(hbr.Rules{}, nil)
	inc.Infer(all)
	ios := snapshot.Collect(all, snapshot.Cut{"r0": all[len(all)-200].Time})
	if hidden := len(all) - len(ios); hidden == 0 || hidden > 200 {
		t.Fatalf("the cut hides %d events, want a few", hidden)
	}
	var g *hbg.Graph
	derive := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g = inc.Infer(ios)
		}
	})
	if got, budget := derive.AllocedBytesPerOp()/int64(len(ios)), int64(128); got > budget {
		t.Errorf("deriving a cut's graph allocates %d B per event, budget %d", got, budget)
	}
	if g.NodeCount() != len(ios) {
		t.Fatalf("derived %d nodes over %d events", g.NodeCount(), len(ios))
	}
	t.Logf("derivation: %d B/event (%d allocs)", derive.AllocedBytesPerOp()/int64(len(ios)), derive.AllocsPerOp())
}

// TestExtensionWorkBudget holds an incremental extension to what arrived, as
// counts and bytes: admitting a 4 K-event suffix to a default-Rules window of
// over 50 K events evaluates the suffix plus what lies within the cross
// window of it, indexes the suffix plus cross + near of history plus the
// window's config changes, and allocates per SUFFIX event — the graph's copy
// of it, its edges, and 8 index bytes per scanned event. An extension that
// indexes or evaluates the window again fails the counts by an order of
// magnitude and the bytes by half.
func TestExtensionWorkBudget(t *testing.T) {
	const window, suffix = 54_000, 4_000
	ios := benchInferLog(42, window+suffix, 12)
	reg := metrics.NewRegistry()
	inc := hbr.NewIncremental(hbr.Rules{}, reg)
	inc.Infer(ios[:window])

	minTime := ios[window].Time
	for _, io := range ios[window:] {
		minTime = min(minTime, io.Time)
	}
	const cross, near = 500 * time.Millisecond, 500 * time.Millisecond // hbr.Rules{} defaults
	evalBudget, indexBudget := int64(suffix), int64(suffix)
	for _, io := range ios[:window] {
		if io.Time >= minTime.Add(-cross) {
			evalBudget++
		}
		if io.Time >= minTime.Add(-cross-near) || io.Type == capture.ConfigChange {
			indexBudget++
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := inc.Infer(ios)
	runtime.ReadMemStats(&after)
	if g.NodeCount() != len(ios) || reg.Timer("infer.incremental").Count() != 1 {
		t.Fatalf("%d nodes over %d events after %d extensions, want one extension", g.NodeCount(), len(ios), reg.Timer("infer.incremental").Count())
	}
	scanned := reg.Counter("infer.window.ios").Value()
	evaluated, indexed := reg.Counter("infer.evaluated.ios").Value(), reg.Counter("infer.indexed.ios").Value()
	if scanned < 50_000+suffix {
		t.Fatalf("the extension scanned %d events; the test wants a default window of over 50 K behind the suffix", scanned)
	}
	if evaluated > evalBudget || evaluated > scanned/8 {
		t.Errorf("extension evaluated %d events, budget %d (suffix + cross) and an eighth of the %d scanned", evaluated, evalBudget, scanned)
	}
	if indexed > indexBudget || indexed > scanned/4 {
		t.Errorf("extension indexed %d events, budget %d (suffix + cross + near + config changes) and a quarter of the %d scanned", indexed, indexBudget, scanned)
	}
	if got, budget := int64(after.TotalAlloc-before.TotalAlloc)/suffix, int64(1024); got > budget {
		t.Errorf("extension allocates %d B per suffix event, budget %d", got, budget)
	}
	t.Logf("scanned %d, indexed %d (budget %d), evaluated %d (budget %d), %d B per suffix event",
		scanned, indexed, indexBudget, evaluated, evalBudget, int64(after.TotalAlloc-before.TotalAlloc)/suffix)
}

// TestServedHitAllocationBudget holds a served plan-cache hit to what it
// returns: through the pipeline's engine on a k=4 fat tree, a warm
// Reachability hit and a warm Waypoint hit over a branched walk (the
// waypoint on every equal-cost trajectory) each allocate the answer's
// PlanKey string and nothing else — 1 allocation, measured. Formatting the
// key, re-validating the walk per path router or building a per-edge
// adjacency for the waypoint breaks it.
func TestServedHitAllocationBudget(t *testing.T) {
	const budget = 1
	n, err := network.BuildFatTree(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(n, []string{"p0e0"})
	eng := p.ServeEngine(nil)
	defer eng.Close()
	dst := netip.MustParsePrefix("9.1.1.1/32") // p1e0's loopback
	for _, q := range []serve.Query{
		serve.Reachability("p0e0", dst),
		serve.Waypoint("p0e0", dst, "p1e0"),
	} {
		warm, err := eng.Query(q)
		if err != nil || !warm.OK {
			t.Fatalf("%v: %+v, %v", q.Policy, warm, err)
		}
		if warm.Walk.Branches == 0 {
			t.Fatalf("%v: the walk did not branch", q.Policy)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if ans, err := eng.Query(q); err != nil || !ans.CacheHit || !ans.OK {
				t.Fatalf("%v: %+v, %v", q.Policy, ans, err)
			}
		})
		if allocs > budget {
			t.Errorf("%v: a warm hit allocates %v times, budget %d", q.Policy, allocs, budget)
		}
		t.Logf("%v: %v allocations per warm hit", q.Policy, allocs)
	}
}

// TestDerivedGraphsPinNothing: a derived graph shares the cached graph's
// vertices, so anything that kept one — a mirror, a memo of the last cut —
// would keep the cached graph's memory past the two places the pipeline
// frees it: compaction and the invalidation after a rollback. Every vertex
// gets a finalizer, a cut's graph is derived, and every vertex the pipeline
// then drops must be collected.
func TestDerivedGraphsPinNothing(t *testing.T) {
	policies := func(pn *network.PaperNet) []verify.Policy {
		return []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	}
	// derivedGraph ages the converged paper network past any retention
	// floor, misconfigures r2, watches every vertex of the inferred graph and
	// derives the graph of a cut that lags r1 at its first new FIB install
	// (Fig. 1c) through the strategy, as a collected slice.
	derivedGraph := func(t *testing.T, rules hbr.Rules) (pn *network.PaperNet, p *Pipeline, vertices int, collected *atomic.Int64) {
		pn, p = startPaper(t)
		inc := hbr.NewIncremental(rules, p.Metrics)
		inc.SkewSlack = 10 * time.Millisecond
		p.Strategy = inc
		pn.Sched.After(5*time.Second, func() {})
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		mark := pn.Log.Len()
		if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
		}); err != nil {
			t.Fatal(err)
		}
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		cut := snapshot.Cut{}
		for _, io := range pn.Log.Snapshot()[mark:] {
			if io.Router == "r1" && io.Type == capture.FIBInstall {
				cut["r1"] = io.Time
				break
			}
		}
		collected = new(atomic.Int64)
		for _, ref := range p.Graph().Refs() {
			vertices++
			// A vertex starts with its I/O, so this is the vertex's allocation.
			runtime.SetFinalizer(ref, func(*capture.IO) { collected.Add(1) })
		}
		visible := snapshot.Collect(pn.Log.Snapshot(), cut)
		if g := p.Strategy.Infer(visible); g.NodeCount() != len(visible) || len(visible) == vertices {
			t.Fatalf("the cut's graph has %d of %d vertices, %d visible", g.NodeCount(), vertices, len(visible))
		}
		if p.Metrics.Timer("infer.derived").Count() == 0 {
			t.Fatal("the cut's graph was not derived: the test no longer exercises the path")
		}
		return pn, p, vertices, collected
	}
	settle := func() {
		for i := 0; i < 3; i++ {
			runtime.GC()
			time.Sleep(10 * time.Millisecond) // finalizers run on their own goroutine
		}
	}

	t.Run("CompactLog", func(t *testing.T) {
		// Windows short enough that the initial convergence ages out.
		_, p, _, collected := derivedGraph(t, hbr.Rules{Window: 50 * time.Millisecond,
			ConfigWindow: 100 * time.Millisecond, CrossWindow: 50 * time.Millisecond})
		_, evicted := p.Strategy.Compact(p.Net.Log)
		if evicted == 0 {
			t.Fatal("Compact evicted nothing")
		}
		settle()
		if got := collected.Load(); got < int64(evicted) {
			t.Errorf("%d of %d compacted vertices collected", got, evicted)
		}
	})
	t.Run("rollback", func(t *testing.T) {
		pn, p, vertices, collected := derivedGraph(t, hbr.Rules{})
		if d, err := p.DetectAndRepair(policies(pn)); err != nil || !d.RolledBack {
			t.Fatalf("no rollback: %v, %v", d, err)
		}
		settle()
		if got := collected.Load(); got != int64(vertices) {
			t.Errorf("%d of %d vertices collected after the rollback invalidated the cache", got, vertices)
		}
	})
}

// benchInferLog generates a deterministic synthetic capture log shaped
// like real churn: BGP/RIP/EIGRP update chains with RIB/FIB installs,
// prefix-less OSPF floods matched by Detail (with occasional duplicate
// sends so tie-breaking is exercised), link flaps, config edits, and soft
// reconfigs, spread over nRouters skewed clocks.
func benchInferLog(seed int64, n, nRouters int) []capture.IO {
	rng := rand.New(rand.NewSource(seed))
	routers := make([]string, nRouters)
	skew := make([]time.Duration, nRouters)
	for i := range routers {
		routers[i] = fmt.Sprintf("r%d", i)
		skew[i] = time.Duration(rng.Intn(401)-200) * time.Millisecond
	}
	prefixes := make([]netip.Prefix, 64)
	for i := range prefixes {
		prefixes[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/8, i%8*4))
	}
	protos := []route.Protocol{route.ProtoBGP, route.ProtoOSPF, route.ProtoRIP, route.ProtoEIGRP}

	out := make([]capture.IO, 0, n+8)
	id := uint64(1)
	base := netsim.VirtualTime(int64(time.Hour)) // keep skewed stamps positive
	add := func(r int, io capture.IO, dt time.Duration) {
		io.ID = id
		id++
		io.Router = routers[r]
		io.Time = base.Add(dt + skew[r])
		out = append(out, io)
	}
	for len(out) < n {
		base = base.Add(time.Duration(1+rng.Intn(5)) * time.Millisecond)
		a := rng.Intn(nRouters)
		peer := (a + 1) % nRouters
		switch rng.Intn(10) {
		case 0:
			add(a, capture.IO{Type: capture.ConfigChange, Detail: "policy edit"}, 0)
		case 1:
			up := capture.LinkUp
			if rng.Intn(2) == 0 {
				up = capture.LinkDown
			}
			add(a, capture.IO{Type: up, Peer: routers[peer], Detail: "eth0"}, 0)
		case 2:
			detail := fmt.Sprintf("LSA type 1 seq %d", rng.Intn(8))
			addr := netip.MustParseAddr(fmt.Sprintf("10.255.0.%d", a+1))
			add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[peer], PeerAddr: addr, Detail: detail}, 0)
			if rng.Intn(3) == 0 {
				add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[peer], PeerAddr: addr, Detail: detail},
					time.Duration(rng.Intn(20))*time.Millisecond)
			}
			add(peer, capture.IO{Type: capture.RecvAdvert, Proto: route.ProtoOSPF, Peer: routers[a], PeerAddr: addr, Detail: detail},
				time.Duration(rng.Intn(10))*time.Millisecond)
		default:
			proto := protos[rng.Intn(len(protos))]
			pfx := prefixes[rng.Intn(len(prefixes))]
			nh := netip.MustParseAddr(fmt.Sprintf("10.255.0.%d", a+1))
			kind, rkind := capture.SendAdvert, capture.RecvAdvert
			if rng.Intn(4) == 0 {
				kind, rkind = capture.SendWithdraw, capture.RecvWithdraw
			}
			add(a, capture.IO{Type: capture.RIBInstall, Proto: proto, Prefix: pfx, NextHop: nh}, 0)
			add(a, capture.IO{Type: capture.FIBInstall, Proto: proto, Prefix: pfx, NextHop: nh}, time.Millisecond)
			add(a, capture.IO{Type: kind, Proto: proto, Prefix: pfx, Peer: routers[peer], PeerAddr: nh}, 2*time.Millisecond)
			add(peer, capture.IO{Type: rkind, Proto: proto, Prefix: pfx, Peer: routers[a], PeerAddr: nh, NextHop: nh},
				2*time.Millisecond+time.Duration(rng.Intn(8))*time.Millisecond)
			if rng.Intn(8) == 0 {
				add(peer, capture.IO{Type: capture.SoftReconfig, Proto: route.ProtoBGP}, 3*time.Millisecond)
			}
		}
	}
	return out[:n]
}
