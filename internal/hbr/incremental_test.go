package hbr_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
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
	"hbverify/internal/snapshot"
)

// grow converges the paper network, then appends rounds of config churn
// separated by idle virtual time, returning the log snapshot after each
// round.
func grow(t *testing.T, rounds int) [][]capture.IO {
	t.Helper()
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	snaps := [][]capture.IO{capture.StripOracle(pn.Log.All())}
	lp := uint32(10)
	for i := 0; i < rounds; i++ {
		if _, err := pn.UpdateConfig("r2", "toggle uplink local-pref", func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
		}); err != nil {
			t.Fatal(err)
		}
		lp = 310 - lp // toggle between 10 and 300
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		// Idle virtual time between rounds; the clock only advances through
		// events, so schedule a no-op marker.
		pn.Sched.After(90*time.Second, func() {})
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, capture.StripOracle(pn.Log.All()))
	}
	return snaps
}

func edgesEqual(t *testing.T, a, b *hbg.Graph) {
	t.Helper()
	if a.NodeCount() != b.NodeCount() {
		t.Fatalf("node counts diverge: %d vs %d", a.NodeCount(), b.NodeCount())
	}
	ae, be := a.Edges(), b.Edges()
	seen := map[hbg.Edge]bool{}
	for _, e := range ae {
		seen[e] = true
	}
	for _, e := range be {
		if !seen[e] {
			t.Errorf("full inference has edge %v missing from incremental graph", e)
		}
		delete(seen, e)
	}
	for e := range seen {
		t.Errorf("incremental graph has extra edge %v", e)
	}
	if t.Failed() {
		t.Fatalf("edge sets diverge (%d incremental vs %d full)", len(ae), len(be))
	}
}

// TestIncrementalMatchesFull grows the log through several config-churn
// rounds and checks the suffix-merged graph equals full re-inference at
// every step.
func TestIncrementalMatchesFull(t *testing.T) {
	snaps := grow(t, 4)
	rules := hbr.Rules{}
	inc := hbr.NewIncremental(rules, nil)
	for i, ios := range snaps {
		got := inc.Infer(ios)
		want := rules.Infer(ios)
		_ = i
		edgesEqual(t, got, want)
	}
}

// TestIncrementalCacheBehaviour pins the cache-management contract: hits on
// an unchanged log, exactly one full inference across repeated growth, a
// non-poisoning fallback for cut-filtered logs, and invalidation.
func TestIncrementalCacheBehaviour(t *testing.T) {
	snaps := grow(t, 2)
	reg := metrics.NewRegistry()
	inc := hbr.NewIncremental(hbr.Rules{}, reg)

	full := func() int64 { return reg.Counter("infer.cache.misses").Value() }
	hits := func() int64 { return reg.Counter("infer.cache.hits").Value() }

	g0 := inc.Infer(snaps[0])
	if full() != 1 {
		t.Fatalf("first inference: full=%d, want 1", full())
	}
	if g1 := inc.Infer(snaps[0]); g1 != g0 || hits() != 1 {
		t.Fatalf("unchanged log must hit the cache (hits=%d)", hits())
	}

	// Growth goes through the incremental path: no new full inference.
	inc.Infer(snaps[1])
	inc.Infer(snaps[2])
	if full() != 1 {
		t.Fatalf("growth triggered full inference: full=%d, want 1", full())
	}
	if n := reg.Counter("infer.suffix.ios").Value(); n == 0 {
		t.Fatal("incremental path did not record suffix I/Os")
	}

	// A cut-filtered subset (e.g. a snapshot collection) is derived from the
	// cached graph: no full inference, the same graph a full one gives, and
	// the cached baseline undisturbed.
	cached := inc.Infer(snaps[2])
	before := [2]int{cached.NodeCount(), cached.EdgeCount()}
	subset := append([]capture.IO(nil), snaps[2][:len(snaps[2])/2]...)
	subset = append(subset, snaps[2][len(snaps[2])/2+1:]...)
	derived := inc.Infer(subset)
	if full() != 1 || reg.Timer("infer.derived").Count() != 1 {
		t.Fatalf("subset must be derived: full=%d derived=%d, want 1 and 1", full(), reg.Timer("infer.derived").Count())
	}
	sameGraph(t, derived, hbr.Rules{}.Infer(subset))
	if g := inc.Infer(snaps[2]); g != cached || hits() != 3 {
		t.Fatalf("cache was disturbed by the subset inference (hits=%d)", hits())
	}
	if after := [2]int{cached.NodeCount(), cached.EdgeCount()}; after != before {
		t.Fatalf("cached graph changed under the subset inference: %v -> %v", before, after)
	}

	// A slice that is not the covered window minus something still pays a
	// full inference: here one that starts before the window.
	inc.Infer(append([]capture.IO{{ID: 0, Router: "r1"}}, subset...))
	if full() != 2 {
		t.Fatalf("foreign slice must full-infer: full=%d, want 2", full())
	}

	inc.Invalidate()
	inc.Infer(snaps[2])
	if full() != 3 {
		t.Fatalf("invalidate must force full inference: full=%d, want 3", full())
	}
}

// sameGraph requires two graphs to agree on vertices, edges, confidences,
// both adjacency directions and the §5 consistency verdict.
func sameGraph(t *testing.T, got, want *hbg.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("vertices differ: %d vs %d", got.NodeCount(), want.NodeCount())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) || got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("edges differ: %d (count %d) vs %d (count %d)", len(got.Edges()), got.EdgeCount(), len(want.Edges()), want.EdgeCount())
	}
	for _, e := range want.Edges() {
		if g, w := got.Confidence(e.From, e.To), want.Confidence(e.From, e.To); g != w {
			t.Fatalf("confidence(%d->%d) = %v, want %v", e.From, e.To, g, w)
		}
	}
	for _, io := range want.Nodes() {
		if !reflect.DeepEqual(got.Parents(io.ID), want.Parents(io.ID)) || !reflect.DeepEqual(got.Children(io.ID), want.Children(io.ID)) {
			t.Fatalf("adjacency of %d differs: parents %v vs %v, children %v vs %v", io.ID,
				got.Parents(io.ID), want.Parents(io.ID), got.Children(io.ID), want.Children(io.ID))
		}
	}
	if g, w := snapshot.Check(got, nil), snapshot.Check(want, nil); !reflect.DeepEqual(g, w) {
		t.Fatalf("snapshot.Check differs: %+v vs %+v", g, w)
	}
}

// TestDerivedCutsMatchFull is the differential for the derive path: over a
// log with several rounds of churn, a hundred random cuts — per-router
// horizons as snapshot.Collect applies them, plus stray single events — must
// each be answered without a full inference and equal one in every respect,
// both as a collected slice and as the whole log's view with the cut's IDs
// hidden, with the cache answering for the whole log before and after
// exactly alike.
func TestDerivedCutsMatchFull(t *testing.T) {
	snaps := grow(t, 3)
	ios := snaps[len(snaps)-1]
	reg := metrics.NewRegistry()
	inc := hbr.NewIncremental(hbr.Rules{}, reg)
	for _, s := range snaps {
		inc.Infer(s) // the cached graph is an extended one, as in production
	}
	whole := hbr.Rules{}.Infer(ios)
	routers := map[string][]netsim.VirtualTime{}
	for _, io := range ios {
		routers[io.Router] = append(routers[io.Router], io.Time)
	}
	names := make([]string, 0, len(routers))
	for r := range routers {
		names = append(names, r)
	}
	slices.Sort(names)

	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 100; i++ {
		cut := snapshot.Cut{}
		for _, r := range names {
			if ts := routers[r]; rng.Intn(3) == 0 {
				cut[r] = ts[rng.Intn(len(ts))]
			}
		}
		visible := snapshot.Collect(ios, cut)
		for k := rng.Intn(4); k > 0 && len(visible) > 1; k-- {
			at := rng.Intn(len(visible))
			visible = slices.Delete(visible, at, at+1)
		}
		if len(visible) == len(ios) {
			continue
		}
		want := hbr.Rules{}.Infer(visible)
		sameGraph(t, inc.Infer(visible), want)
		var hidden []uint64
		for i, j := 0, 0; i < len(ios); i++ {
			if j < len(visible) && visible[j].ID == ios[i].ID {
				j++
			} else {
				hidden = append(hidden, ios[i].ID)
			}
		}
		derived := inc.Cached(capture.ViewOf(ios), hidden)
		if derived == nil {
			t.Fatalf("a cut hiding %d events was not derived over the view", len(hidden))
		}
		sameGraph(t, derived, want)
	}
	if n := reg.Timer("infer.derived").Count(); n < 100 {
		t.Fatalf("only %d derivations for 100 cuts, each taken twice", n)
	}
	if n := reg.Counter("infer.cache.misses").Value(); n != 1 {
		t.Fatalf("full inferences = %d, want the first one only", n)
	}
	sameGraph(t, inc.Infer(ios), whole)
}

// TestDeriveFallsBack: the derive path is taken only where its removal
// argument holds — Rules over a cache with no folded history.
func TestDeriveFallsBack(t *testing.T) {
	ios := pairLog(10)
	subset := append(append([]capture.IO(nil), ios[:6]...), ios[7:]...)

	reg := metrics.NewRegistry()
	prefix := hbr.NewIncremental(hbr.Prefix{}, reg)
	prefix.Infer(ios)
	sameGraph(t, prefix.Infer(subset), hbr.Prefix{}.Infer(subset))
	if g := prefix.Cached(capture.ViewOf(ios), []uint64{ios[6].ID}); g != nil {
		t.Fatal("a Prefix cache answered a cut of its window")
	}

	compacted := hbr.NewIncremental(hbr.Rules{}, reg)
	compacted.Infer(ios)
	compacted.CompactBaseline(3)
	compacted.Infer(subset[2:])
	if g := compacted.Cached(capture.ViewOf(ios[2:]), []uint64{ios[6].ID}); g != nil {
		t.Fatal("a checkpointed cache answered a cut of its window")
	}

	if n := reg.Timer("infer.derived").Count(); n != 0 {
		t.Fatalf("%d derivations from a non-Rules strategy or a checkpointed cache, want 0", n)
	}
}

// TestIncrementalLookbackWindows pins the windows the look-back slice is
// derived from.
func TestIncrementalLookbackWindows(t *testing.T) {
	if got := (hbr.Rules{}).LookbackWindow(); got != 60*time.Second {
		t.Fatalf("Rules default lookback = %v, want 60s", got)
	}
	r := hbr.Rules{Window: time.Second, ConfigWindow: 2 * time.Second, CrossWindow: 3 * time.Second}
	if got := r.LookbackWindow(); got != 3*time.Second {
		t.Fatalf("Rules lookback = %v, want 3s", got)
	}
	if got := (hbr.Prefix{}).LookbackWindow(); got != 500*time.Millisecond {
		t.Fatalf("Prefix default lookback = %v", got)
	}
	c := hbr.Combined{Rules: r}
	if got := c.LookbackWindow(); got != 3*time.Second {
		t.Fatalf("Combined lookback = %v, want 3s", got)
	}
}

// pairLog builds 2n hand-crafted I/Os: n cross-router advert pairs
// (send on r1, matching recv on r2) with distinct prefixes, spaced far
// enough apart that rules never link across pairs. IDs are dense from 1.
func pairLog(n int) []capture.IO {
	ios := make([]capture.IO, 0, 2*n)
	for k := 0; k < n; k++ {
		at := netsim.VirtualTime((10 + 2*time.Duration(k)) * time.Second)
		pfx := netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", k))
		ios = append(ios,
			capture.IO{ID: uint64(2*k + 1), Router: "r1", Peer: "r2",
				Type: capture.SendAdvert, Proto: route.ProtoBGP, Prefix: pfx, Time: at},
			capture.IO{ID: uint64(2*k + 2), Router: "r2", Peer: "r1",
				Type: capture.RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx,
				Time: at + netsim.VirtualTime(100*time.Millisecond)},
		)
	}
	return ios
}

// TestExtendScansPastSkewStragglers pins the look-back soundness fix. A
// slow-clock router's event lands in the log AFTER an in-window event but
// with an OLDER observed timestamp. The pre-fix backward scan stopped at
// the first sub-cutoff timestamp, excluded the in-window event from the
// re-inference slice, and silently dropped its cross-router edge; the
// skew-slack scan keeps going and finds it.
func TestExtendScansPastSkewStragglers(t *testing.T) {
	rules := hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: time.Second,
		CrossWindow: 500 * time.Millisecond} // lookback = 1s
	pfx := netip.MustParsePrefix("10.0.0.0/16")
	ios := []capture.IO{
		{ID: 1, Router: "r1", Type: capture.ConfigChange, Detail: "seed",
			Time: netsim.VirtualTime(time.Second)},
		{ID: 2, Router: "r1", Peer: "r2", Type: capture.SendAdvert,
			Proto: route.ProtoBGP, Prefix: pfx,
			Time: netsim.VirtualTime(100 * time.Second)},
		// Straggler: appended after the send, observed 2.5s earlier (slow
		// clock on r3) — below the slice's floor of two look-backs before
		// the suffix, inside the slack under it.
		{ID: 3, Router: "r3", Type: capture.ConfigChange, Detail: "late",
			Time: netsim.VirtualTime(97500 * time.Millisecond)},
	}
	recv := capture.IO{ID: 4, Router: "r2", Peer: "r1", Type: capture.RecvAdvert,
		Proto: route.ProtoBGP, Prefix: pfx,
		Time: netsim.VirtualTime(100200 * time.Millisecond)}
	full := append(append([]capture.IO(nil), ios...), recv)

	inc := hbr.NewIncremental(rules, nil)
	inc.Infer(ios)
	edgesEqual(t, inc.Infer(full), rules.Infer(full))

	// Demonstrate the pre-fix behaviour: with the slack disabled the scan
	// stops at the straggler and the send→recv edge is lost.
	old := hbr.NewIncremental(rules, nil)
	old.SkewSlack = -1
	old.Infer(ios)
	if g := old.Infer(full); g.HasEdge(2, 4) {
		t.Fatal("slack-free scan unexpectedly found the edge; regression scenario no longer exercises the bug")
	}
	if !rules.Infer(full).HasEdge(2, 4) {
		t.Fatal("full inference lost the cross-router edge; scenario broken")
	}
}

// TestIncrementalCompactedBaseline pins the ID-keyed coverage contract:
// after CompactBaseline the cache treats "pruned graph + retained window"
// as its baseline and keeps extending incrementally, with edge sets equal
// to full inference pruned at the same floor.
func TestIncrementalCompactedBaseline(t *testing.T) {
	rules := hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: time.Second,
		CrossWindow: 500 * time.Millisecond}
	ios := pairLog(10)
	reg := metrics.NewRegistry()
	inc := hbr.NewIncremental(rules, reg)

	inc.Infer(ios[:12]) // baseline over IDs 1..12
	inc.CompactBaseline(5)
	if first, last, ok := inc.CoveredWindow(); !ok || first != 5 || last != 12 {
		t.Fatalf("covered window = [%d,%d] ok=%v, want [5,12]", first, last, ok)
	}

	// Retained window grows: must take the incremental path and match full
	// inference pruned at the compaction floor.
	got := inc.Infer(ios[4:16])
	want := rules.Infer(ios[:16])
	want.PruneBefore(5)
	edgesEqual(t, got, want)
	if n := reg.Counter("infer.cache.misses").Value(); n != 1 {
		t.Fatalf("full inferences = %d, want 1 (growth after compaction must stay incremental)", n)
	}

	// A full inference over the retained window alone must not replace the
	// checkpointed baseline (it lacks the folded history).
	subset := append([]capture.IO(nil), ios[4:9]...)
	inc.Infer(subset)
	if first, last, ok := inc.CoveredWindow(); !ok || first != 5 || last != 16 {
		t.Fatalf("subset inference disturbed the baseline: [%d,%d] ok=%v", first, last, ok)
	}

	// Compact to empty, then extend from nothing.
	inc.CompactBaseline(17)
	if first, last, ok := inc.CoveredWindow(); !ok || first != 17 || last != 16 {
		t.Fatalf("empty window = [%d,%d] ok=%v, want [17,16]", first, last, ok)
	}
	got = inc.Infer(ios[16:])
	want = rules.Infer(ios)
	want.PruneBefore(17)
	edgesEqual(t, got, want)
}

// TestSeedCheckpointResumesIncremental round-trips a compacted baseline
// through the checkpoint codec and checks the recovered cache produces
// edge-identical graphs to the uninterrupted one — the unit-level version
// of the daemon's crash-restart differential.
func TestSeedCheckpointResumesIncremental(t *testing.T) {
	rules := hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: time.Second,
		CrossWindow: 500 * time.Millisecond}
	ios := pairLog(10)

	inc1 := hbr.NewIncremental(rules, nil)
	inc1.Infer(ios[:12])
	inc1.CompactBaseline(5)

	cp := &hbg.Checkpoint{Graph: inc1.Infer(ios[4:12]), LastID: 12,
		FirstRetainedID: 5, Retained: append([]capture.IO(nil), ios[4:12]...)}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := hbg.DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	inc2 := hbr.NewIncremental(rules, reg)
	inc2.SeedCheckpoint(rec.Graph, rec.FirstRetainedID, rec.LastID)
	got := inc2.Infer(append(append([]capture.IO(nil), rec.Retained...), ios[12:]...))
	want := inc1.Infer(ios[4:])
	edgesEqual(t, got, want)
	if n := reg.Counter("infer.cache.misses").Value(); n != 0 {
		t.Fatalf("recovered cache fell back to full inference %d times, want 0", n)
	}
}

// TestIncrementalLaterNearerSendReplacesEdge pins the unit of merge: a recv
// matched to the only send seen so far must be re-matched when a later,
// nearer send arrives. A union of the re-inferred window into the cache
// keeps the displaced 1→2 beside the new 3→2 — a second, wrong root cause.
func TestIncrementalLaterNearerSendReplacesEdge(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.0.0/16")
	at := func(ms int) netsim.VirtualTime {
		return netsim.VirtualTime(time.Second + time.Duration(ms)*time.Millisecond)
	}
	send := func(id uint64, ms int) capture.IO {
		return capture.IO{ID: id, Router: "a", Peer: "b", Type: capture.SendAdvert,
			Proto: route.ProtoBGP, Prefix: pfx, Time: at(ms)}
	}
	ios := []capture.IO{
		send(1, 0),
		{ID: 2, Router: "b", Peer: "a", Type: capture.RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx, Time: at(100)},
		send(3, 150),
	}
	inc := hbr.NewIncremental(hbr.Rules{}, nil)
	if g := inc.Infer(ios[:2]); !g.HasEdge(1, 2) {
		t.Fatal("the recv did not match the only send")
	}
	got := inc.Infer(ios)
	edgesEqual(t, got, hbr.Rules{}.Infer(ios))
	if want := []hbg.Edge{{From: 3, To: 2}}; !reflect.DeepEqual(got.Edges(), want) {
		t.Fatalf("edges = %v, want %v", got.Edges(), want)
	}
	if roots := got.RootCauses(2); len(roots) != 1 || roots[0].ID != 3 {
		t.Fatalf("RootCauses(2) = %v, want the nearer send alone", roots)
	}
}

// TestInferredGraphOwnsItsVertices: inference reads the caller's slice by
// handle, but the graph it returns must not — the log may be compacted or,
// here, overwritten afterwards.
func TestInferredGraphOwnsItsVertices(t *testing.T) {
	snaps := grow(t, 1)
	ios := append([]capture.IO(nil), snaps[len(snaps)-1]...)
	for _, s := range hbr.Strategies(ios, 0) {
		g := s.Infer(ios)
		want := g.Nodes()
		if !reflect.DeepEqual(want, snaps[len(snaps)-1]) {
			t.Fatalf("%s: vertices differ from the log inferred over", s.Name())
		}
		for i := range ios {
			ios[i] = capture.IO{ID: ios[i].ID, Router: "overwritten"}
		}
		if !reflect.DeepEqual(g.Nodes(), want) {
			t.Fatalf("%s: overwriting the inferred-over slice changed the graph's vertices", s.Name())
		}
		copy(ios, snaps[len(snaps)-1])
	}
}
