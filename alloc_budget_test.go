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
	"hbverify/internal/eqclass"
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
// allocates words per event — the index, the edges and a vertex that points
// at its event, about 200 B — and a consistency check allocates words per
// vertex. A copy of the events anywhere on the path — in a by-value helper,
// a second copy of the log or a vertex that holds its event, each 320 bytes
// an event — breaks the first bound; a per-FIB-update provenance query or a
// Nodes() call breaks the second.
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
	if got, budget := infer.AllocedBytesPerOp()/int64(len(ios)), int64(eventBytes); got > budget {
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
// 80).
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
// window's config changes, and allocates per SUFFIX event — its vertex,
// which points at the event, its edges, and 8 index bytes per scanned event,
// about 470 B. An extension that indexes or evaluates the window again fails
// the counts by an order of magnitude, and one that copies each suffix event
// (320 bytes) fails the bytes, as does one whose graph sizes its adjacency
// arena by counting the whole graph's edges instead of the batch's (≈ 580 B).
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
	if got, budget := int64(after.TotalAlloc-before.TotalAlloc)/suffix, int64(512); got > budget {
		t.Errorf("extension allocates %d B per suffix event, budget %d", got, budget)
	}
	t.Logf("scanned %d, indexed %d (budget %d), evaluated %d (budget %d), %d B per suffix event",
		scanned, indexed, indexBudget, evaluated, evalBudget, int64(after.TotalAlloc-before.TotalAlloc)/suffix)
}

// TestInferredGraphMemoryBudget holds an inferred graph to its adjacency,
// measured as live heap after a GC with the log it was inferred over kept
// alive: a vertex — a pointer to its event where the log holds it, a
// generation and two ID lists, one slab's slot — plus its slot in the
// ID-ordered store and its edges in one arena, about 100 B. A vertex
// allocated alone with lists grown edge by edge retains about 113 B, and one
// that holds a copy of its 320-byte event about 415 B.
func TestInferredGraphMemoryBudget(t *testing.T) {
	const budget = 112 // bytes retained per vertex
	ios := benchInferLog(42, 20_000, 12)
	before := liveHeap()
	g := hbr.Rules{}.Infer(ios)
	retained := liveHeap() - before
	if g.NodeCount() != len(ios) || g.EdgeCount() < len(ios)/2 {
		t.Fatalf("inferred %d nodes and %d edges over %d events", g.NodeCount(), g.EdgeCount(), len(ios))
	}
	runtime.KeepAlive(ios)
	perVertex := float64(retained) / float64(g.NodeCount())
	if perVertex > budget {
		t.Errorf("the graph retains %.0f B per vertex (%d B over %d vertices), budget %d", perVertex, retained, g.NodeCount(), budget)
	}
	t.Logf("%d vertices, %d edges: %.0f B retained per vertex", g.NodeCount(), g.EdgeCount(), perVertex)
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestClassifierMemoryBudget holds the equivalence classifier to what it
// derives from the FIBs it watches — the prefix universe, the signatures
// and the classes — measured as live heap after a GC around Watch and the
// first Update on the converged k=8 fat tree (80 routers). A per-router
// copy of the watched tables costs about 440 B per entry and breaks the
// budget.
func TestClassifierMemoryBudget(t *testing.T) {
	const budget = 150 // bytes retained per watched FIB entry
	n, err := network.BuildFatTree(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, r := range n.Routers() {
		entries += r.FIB.Snapshot().Len()
	}
	before := liveHeap()
	inc := eqclass.NewIncremental(nil)
	for _, r := range n.Routers() {
		inc.Watch(r.Name, r.FIB)
	}
	d := inc.Update()
	retained := liveHeap() - before
	if d.Resigned == 0 || inc.Len() == 0 {
		t.Fatalf("the first flush re-signed %d prefixes into %d classes", d.Resigned, inc.Len())
	}
	perEntry := float64(retained) / float64(entries)
	if perEntry > budget {
		t.Errorf("the classifier retains %.0f B per watched FIB entry (%d B over %d entries), budget %d", perEntry, retained, entries, budget)
	}
	t.Logf("%d classes over %d entries on %d routers: %.0f B retained per entry", inc.Len(), entries, len(n.Routers()), perEntry)
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

// TestDerivedGraphsPinNothing: the cached graph's vertices point into the
// capture log's segments and a derived graph shares them, so anything that
// kept either graph — a mirror, a memo of the last cut — would keep memory
// past the two places the pipeline frees it. Compaction must release every
// log segment it evicts, and the invalidation after a rollback must release
// the cached graph and every graph derived from it.
func TestDerivedGraphsPinNothing(t *testing.T) {
	// segLen is capture.Log's segment length. A log never compacted holds
	// the event with ID 1+k·segLen first in its k-th segment, so a pointer to
	// it is the segment's allocation; SetFinalizer panics on any other.
	const segLen = 4096
	policies := func(pn *network.PaperNet) []verify.Policy {
		return []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	}
	// derivedGraph churns the converged paper network past two log
	// segments, ages it past any retention floor, misconfigures r2 and
	// derives, through the strategy and as a collected slice, the graph of a
	// cut that lags r1 at its first new FIB install (Fig. 1c). It watches the
	// cached graph and the derived one.
	derivedGraph := func(t *testing.T, rules hbr.Rules) (pn *network.PaperNet, p *Pipeline, collected *atomic.Int64) {
		pn, p = startPaper(t)
		inc := hbr.NewIncremental(rules, p.Metrics)
		inc.SkewSlack = 10 * time.Millisecond
		p.Strategy = inc
		setLP := func(lp uint32) {
			if _, err := pn.UpdateConfig("r2", fmt.Sprintf("lp %d", lp), func(c *config.Router) {
				c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
			}); err != nil {
				t.Fatal(err)
			}
			if err := pn.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for pn.Log.Len() <= 2*segLen {
			setLP(10)
			setLP(300)
		}
		pn.Sched.After(5*time.Second, func() {})
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		mark := pn.Log.Len()
		setLP(10)
		cut := snapshot.Cut{}
		for _, io := range pn.Log.Snapshot()[mark:] {
			if io.Router == "r1" && io.Type == capture.FIBInstall {
				cut["r1"] = io.Time
				break
			}
		}
		collected = new(atomic.Int64)
		watch := func(g *hbg.Graph) { runtime.SetFinalizer(g, func(*hbg.Graph) { collected.Add(1) }) }
		g := p.Graph()
		watch(g)
		visible := snapshot.Collect(pn.Log.Snapshot(), cut)
		if d := p.Strategy.Infer(visible); d.NodeCount() != len(visible) || len(visible) == g.NodeCount() {
			t.Fatalf("the cut's graph has %d of %d vertices, %d visible", d.NodeCount(), g.NodeCount(), len(visible))
		} else {
			watch(d)
		}
		if p.Metrics.Timer("infer.derived").Count() == 0 {
			t.Fatal("the cut's graph was not derived: the test no longer exercises the path")
		}
		return pn, p, collected
	}
	settle := func() {
		for i := 0; i < 3; i++ {
			runtime.GC()
			time.Sleep(10 * time.Millisecond) // finalizers run on their own goroutine
		}
	}

	t.Run("CompactLog", func(t *testing.T) {
		// Windows short enough that the churn ages out.
		_, p, _ := derivedGraph(t, hbr.Rules{Window: 50 * time.Millisecond,
			ConfigWindow: 100 * time.Millisecond})
		segments, released := 0, new(atomic.Int64)
		v := p.Net.Log.View()
		if v.At(0).ID != 1 {
			t.Fatalf("the log starts at ID %d: it was compacted before the test", v.At(0).ID)
		}
		for i := 0; i < v.Len(); i += segLen {
			runtime.SetFinalizer(v.At(i), func(*capture.IO) { released.Add(1) })
			segments++
		}
		v = capture.View{}
		if _, evicted := p.Strategy.Compact(p.Net.Log); evicted == 0 {
			t.Fatal("Compact evicted nothing")
		}
		settle()
		// Segment k holds IDs 1+k·segLen through (k+1)·segLen.
		gone := int64((p.Net.Log.FirstID() - 1) / segLen)
		if gone == 0 {
			t.Fatalf("Compact evicted no whole segment of %d (first retained ID %d)", segments, p.Net.Log.FirstID())
		}
		if got := released.Load(); got != gone {
			t.Errorf("%d of the %d evicted log segments collected (%d segments)", got, gone, segments)
		}
	})
	t.Run("rollback", func(t *testing.T) {
		pn, p, collected := derivedGraph(t, hbr.Rules{})
		if d, err := p.DetectAndRepair(policies(pn)); err != nil || !d.RolledBack {
			t.Fatalf("no rollback: %v, %v", d, err)
		}
		settle()
		if got := collected.Load(); got != 2 {
			t.Errorf("%d of the cached and the derived graph collected after the rollback invalidated the cache", got)
		}
		// The pipeline must outlive the check, or everything it holds is
		// collected with it.
		runtime.KeepAlive(p)
	})
}

// benchInferLog generates a deterministic synthetic capture log shaped
// like real churn: BGP/RIP/EIGRP update chains with RIB/FIB installs,
// prefix-less OSPF floods matched by Detail (with occasional re-sent LSAs),
// link flaps logged at both ends, config edits, and soft reconfigs, spread
// over nRouters skewed clocks. Every message sent is received, in order, as
// on the simulator's sessions.
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
			add(peer, capture.IO{Type: up, Peer: routers[a], Detail: "eth0"}, 0)
		case 2:
			detail := fmt.Sprintf("LSA type 1 seq %d", rng.Intn(8))
			addr := netip.MustParseAddr(fmt.Sprintf("10.255.0.%d", a+1))
			for range 1 + rng.Intn(3)/2 {
				add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[peer], PeerAddr: addr, Detail: detail}, 0)
				add(peer, capture.IO{Type: capture.RecvAdvert, Proto: route.ProtoOSPF, Peer: routers[a], PeerAddr: addr, Detail: detail},
					time.Duration(rng.Intn(10))*time.Millisecond)
			}
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

// TestInferenceCandidateBudget holds rule matching to the candidates that
// can fit, as a count: on fault_loop's shape — a configuration change
// re-routes every prefix, each router receives, installs in its RIB and FIB
// and re-advertises all of them in turn — a full inference and an
// extension visit a few candidates per evaluated event, and as few with 64
// prefixes as with 8. A rule that scans its router's list passes every other
// prefix's changes on the way to its own: a send looking for its RIB change
// visits about three per prefix.
func TestInferenceCandidateBudget(t *testing.T) {
	const budget = 4 // candidates visited per evaluated event
	for _, prefixes := range []int{8, 64} {
		ios := burstLog(prefixes, 6, 40)
		window := len(ios) * 9 / 10
		reg := metrics.NewRegistry()
		inc := hbr.NewIncremental(hbr.Rules{}, reg)
		inc.Infer(ios[:window])
		full := reg.Counter("hbr.infer.candidates").Value()
		inc.Infer(ios)
		ext := reg.Counter("hbr.infer.candidates").Value() - full
		evaluated := reg.Counter("infer.evaluated.ios").Value()
		if reg.Timer("infer.incremental").Count() != 1 || evaluated == 0 {
			t.Fatalf("%d prefixes: %d extensions evaluating %d events, want one", prefixes, reg.Timer("infer.incremental").Count(), evaluated)
		}
		if full == 0 || ext == 0 {
			t.Fatalf("%d prefixes: hbr.infer.candidates counted %d for the full inference and %d for the extension", prefixes, full, ext)
		}
		perFull, perExt := float64(full)/float64(window), float64(ext)/float64(evaluated)
		if perFull > budget || perExt > budget {
			t.Errorf("%d prefixes: %.1f candidates visited per event by a full inference and %.1f by an extension, budget %d",
				prefixes, perFull, perExt, budget)
		}
		t.Logf("%d prefixes, %d events: candidates per event %.2f full, %.2f extension (%d evaluated)",
			prefixes, len(ios), perFull, perExt, evaluated)
	}
}

// burstLog generates fault_loop's shape of log: each of bursts configuration
// changes on r0 re-routes every prefix, and down a line of routers each one
// receives all of them (r0 excepted), installs each in its BGP RIB and FIB,
// then advertises each to the next router, which receives them in order.
// Bursts are a second apart, so no rule reaches from one into another.
func burstLog(prefixes, routers, bursts int) []capture.IO {
	pfx := make([]netip.Prefix, prefixes)
	for i := range pfx {
		pfx[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(i), 0}), 24)
	}
	var out []capture.IO
	at := netsim.VirtualTime(int64(time.Hour))
	add := func(r int, io capture.IO) {
		at += netsim.VirtualTime(20 * time.Microsecond)
		io.ID, io.Router, io.Time, io.Proto = uint64(len(out)+1), fmt.Sprintf("r%d", r), at, route.ProtoBGP
		out = append(out, io)
	}
	for b := 0; b < bursts; b++ {
		at += netsim.VirtualTime(time.Second)
		add(0, capture.IO{Type: capture.ConfigChange, Detail: "set uplink local-pref"})
		for r := 0; r < routers; r++ {
			nh := netip.AddrFrom4([4]byte{10, 255, 0, byte(r + 1)})
			for _, p := range pfx {
				if r > 0 {
					add(r, capture.IO{Type: capture.RecvAdvert, Prefix: p, Peer: fmt.Sprintf("r%d", r-1), NextHop: nh})
				}
				add(r, capture.IO{Type: capture.RIBInstall, Prefix: p, NextHop: nh})
				add(r, capture.IO{Type: capture.FIBInstall, Prefix: p, NextHop: nh})
			}
			if r+1 < routers {
				for _, p := range pfx {
					add(r, capture.IO{Type: capture.SendAdvert, Prefix: p, Peer: fmt.Sprintf("r%d", r+1)})
				}
			}
		}
	}
	return out
}
