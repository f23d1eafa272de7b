package hbverify

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
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
// answering a cut of the cached log — as a collected slice, or as the log's
// view and the IDs the cut hides — allocates an index's words per event, a
// pointer per vertex and copies of the few vertices the cut touches — never
// a copy of the log or of the graph (an event is 320 bytes, a vertex 384).
func TestDerivedGraphAllocationBudget(t *testing.T) {
	all := benchInferLog(42, 20_000, 12)
	inc := hbr.NewIncremental(hbr.Rules{}, nil)
	inc.Infer(all)
	cut := snapshot.Cut{"r0": all[len(all)-200].Time}
	ios := snapshot.Collect(all, cut)
	view := capture.ViewOf(all)
	hidden := snapshot.Hidden(view, cut)
	if len(hidden) == 0 || len(hidden) > 200 || len(hidden)+len(ios) != len(all) {
		t.Fatalf("the cut hides %d events, want a few", len(hidden))
	}
	for _, path := range []struct {
		name  string
		infer func() *hbg.Graph
	}{
		{"a collected slice", func() *hbg.Graph { return inc.Infer(ios) }},
		{"the log's view", func() *hbg.Graph { return inc.Cached(view, hidden) }},
	} {
		var g *hbg.Graph
		derive := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g = path.infer()
			}
		})
		if got, budget := derive.AllocedBytesPerOp()/int64(len(ios)), int64(128); got > budget {
			t.Errorf("deriving a cut's graph from %s allocates %d B per event, budget %d", path.name, got, budget)
		}
		if g.NodeCount() != len(ios) {
			t.Fatalf("derived %d nodes over %d events from %s", g.NodeCount(), len(ios), path.name)
		}
		t.Logf("derivation from %s: %d B/event (%d allocs)", path.name, derive.AllocedBytesPerOp()/int64(len(ios)), derive.AllocsPerOp())
	}
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

// TestDerivedGraphsPinNothing: a derived graph shares the cached graph's
// vertices, so anything that kept one — a mirror, a memo of the last cut —
// would keep the cached graph's memory past the two places the pipeline
// frees it: compaction and the invalidation after a rollback. Every vertex
// gets a finalizer, a snapshot verdict is derived, and every vertex the
// pipeline then drops must be collected.
func TestDerivedGraphsPinNothing(t *testing.T) {
	policies := func(pn *network.PaperNet) []verify.Policy {
		return []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	}
	// derivedVerdict ages the converged paper network past any retention
	// floor, misconfigures r2, watches every vertex of the inferred graph and
	// takes a verdict on a cut that lags r1 at its first new FIB install
	// (Fig. 1c), which VerifySnapshot has to extend.
	derivedVerdict := func(t *testing.T, rules hbr.Rules) (pn *network.PaperNet, p *Pipeline, vertices int, collected *atomic.Int64) {
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
		if rep, res := p.VerifySnapshot(cut, policies(pn)); !res.Consistent || rep.OK() {
			t.Fatalf("snapshot verdict: %s, %+v", rep.Summary(), res)
		}
		if p.Metrics.Timer("infer.derived").Count() == 0 {
			t.Fatal("VerifySnapshot derived nothing: the test no longer exercises the path")
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
		_, p, _, collected := derivedVerdict(t, hbr.Rules{Window: 50 * time.Millisecond,
			ConfigWindow: 100 * time.Millisecond, CrossWindow: 50 * time.Millisecond})
		evicted := p.CompactLog()
		if evicted == 0 {
			t.Fatal("CompactLog evicted nothing")
		}
		settle()
		if got := collected.Load(); got < int64(evicted) {
			t.Errorf("%d of %d compacted vertices collected", got, evicted)
		}
	})
	t.Run("rollback", func(t *testing.T) {
		pn, p, vertices, collected := derivedVerdict(t, hbr.Rules{})
		if d, err := p.DetectAndRepair(policies(pn)); err != nil || !d.RolledBack {
			t.Fatalf("no rollback: %v, %v", d, err)
		}
		settle()
		if got := collected.Load(); got != int64(vertices) {
			t.Errorf("%d of %d vertices collected after the rollback invalidated the cache", got, vertices)
		}
	})
}
