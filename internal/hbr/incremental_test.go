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
	"hbverify/internal/wire"
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
	snaps := [][]capture.IO{capture.StripOracle(pn.Log.Snapshot())}
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
		snaps = append(snaps, capture.StripOracle(pn.Log.Snapshot()))
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

	// A cut-filtered subset (a snapshot collection) is derived from the
	// cached graph: no full inference, the same graph a full one gives, and
	// the cached baseline undisturbed.
	cached := inc.Infer(snaps[2])
	before := [2]int{cached.NodeCount(), cached.EdgeCount()}
	mid := snaps[2][len(snaps[2])/2]
	subset := snapshot.Collect(snaps[2], snapshot.Cut{mid.Router: mid.Time - 1})
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

// sameGraph requires two graphs to agree on vertices, edges, in-lists and
// the §5 consistency verdict.
func sameGraph(t *testing.T, got, want *hbg.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("vertices differ: %d vs %d", got.NodeCount(), want.NodeCount())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) || got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("edges differ: %d (count %d) vs %d (count %d)", len(got.Edges()), got.EdgeCount(), len(want.Edges()), want.EdgeCount())
	}
	for _, io := range want.Nodes() {
		if !reflect.DeepEqual(got.Parents(io.ID), want.Parents(io.ID)) {
			t.Fatalf("parents of %d differ: %v vs %v", io.ID, got.Parents(io.ID), want.Parents(io.ID))
		}
	}
	if g, w := snapshot.Check(got, nil), snapshot.Check(want, nil); !reflect.DeepEqual(g, w) {
		t.Fatalf("snapshot.Check differs: %+v vs %+v", g, w)
	}
}

// TestDerivedCutsMatchFull is the differential for the derive path: over a
// log with several rounds of churn, a hundred random cuts — per-router
// horizons as snapshot.Collect applies them — must each be answered without
// a full inference and equal one in every respect, with the cache answering
// for the whole log before and after exactly alike.
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
	compared := 0
	for i := 0; i < 100; i++ {
		cut := snapshot.Cut{}
		for _, r := range names {
			if ts := routers[r]; rng.Intn(3) == 0 {
				cut[r] = ts[rng.Intn(len(ts))]
			}
		}
		visible := snapshot.Collect(ios, cut)
		if len(visible) == len(ios) {
			continue
		}
		sameGraph(t, inc.Infer(visible), hbr.Rules{}.Infer(visible))
		compared++
	}
	if n := reg.Timer("infer.derived").Count(); compared < 50 || n != int64(compared) {
		t.Fatalf("%d derivations for %d cuts compared", n, compared)
	}
	if n := reg.Counter("infer.cache.misses").Value(); n != 1 {
		t.Fatalf("full inferences = %d, want the first one only", n)
	}
	sameGraph(t, inc.Infer(ios), whole)
}

// TestDeriveFallsBack: the derive path is taken only where its removal
// argument holds — a cache with no folded history, and a slice that hides
// a suffix of each router's events, as a cut does. A send hidden from the
// middle of its channel moves every later receive's place on it.
func TestDeriveFallsBack(t *testing.T) {
	ios := pairLog(10)
	subset := append(append([]capture.IO(nil), ios[:6]...), ios[7:]...) // send 7 hidden

	reg := metrics.NewRegistry()
	compacted := hbr.NewIncremental(hbr.Rules{}, reg)
	compacted.Infer(ios)
	compacted.CompactBaseline(3)
	compacted.Infer(subset[2:])
	if n := reg.Timer("infer.derived").Count(); n != 0 {
		t.Fatalf("%d derivations from a checkpointed cache, want 0", n)
	}

	inc := hbr.NewIncremental(hbr.Rules{}, reg)
	inc.Infer(ios)
	sameGraph(t, inc.Infer(subset), hbr.Rules{}.Infer(subset))
	if n := reg.Timer("infer.derived").Count(); n != 0 {
		t.Fatalf("%d derivations of a slice that is no cut, want 0", n)
	}
}

// TestColdCacheRefusesHoleyView: a cold cache's first inference is of a
// snapshot cut that hides r1's events from its median time on, so the view
// it sees has holes. Adopting that graph as the window from the view's first
// ID to its last would answer the whole log from it, without the hidden
// events (71 vertices and 79 edges); the cache must refuse it and answer
// the whole log with a full inference's graph.
func TestColdCacheRefusesHoleyView(t *testing.T) {
	ios := grow(t, 0)[0]
	var times []netsim.VirtualTime
	for _, io := range ios {
		if io.Router == "r1" {
			times = append(times, io.Time)
		}
	}
	slices.Sort(times)
	visible := snapshot.Collect(ios, snapshot.Cut{"r1": times[len(times)/2] - 1})
	if last := visible[len(visible)-1].ID; int(last-visible[0].ID+1) == len(visible) {
		t.Fatal("the cut hides nothing inside its view; the test is vacuous")
	}
	inc := hbr.NewIncremental(hbr.Rules{}, nil)
	sameGraph(t, inc.Infer(visible), hbr.Rules{}.Infer(visible))
	got, want := inc.Infer(ios), hbr.Rules{}.Infer(ios)
	if want.NodeCount() != 88 || want.EdgeCount() != 110 {
		t.Fatalf("the converged paper net infers %d vertices and %d edges, want 88 and 110",
			want.NodeCount(), want.EdgeCount())
	}
	sameGraph(t, got, want)
}

// TestIncrementalLookbackWindows pins the windows the look-back slice is
// derived from.
func TestIncrementalLookbackWindows(t *testing.T) {
	if got := (hbr.Rules{}).LookbackWindow(); got != 60*time.Second {
		t.Fatalf("Rules default lookback = %v, want 60s", got)
	}
	r := hbr.Rules{Window: 3 * time.Second, ConfigWindow: 2 * time.Second}
	if got := r.LookbackWindow(); got != 3*time.Second {
		t.Fatalf("Rules lookback = %v, want 3s", got)
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
// re-inference slice, and silently dropped the edge it gives a suffix
// event; the skew-slack scan keeps going and finds it.
func TestExtendScansPastSkewStragglers(t *testing.T) {
	rules := hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: time.Second} // lookback = 1s
	pfx := netip.MustParsePrefix("10.0.0.0/16")
	ios := []capture.IO{
		{ID: 1, Router: "r1", Type: capture.ConfigChange, Detail: "seed",
			Time: netsim.VirtualTime(time.Second)},
		{ID: 2, Router: "r2", Peer: "r1", Type: capture.RecvAdvert,
			Proto: route.ProtoBGP, Prefix: pfx,
			Time: netsim.VirtualTime(100 * time.Second)},
		// Straggler: appended after the receive, observed 2.5s earlier (slow
		// clock on r3) — below the slice's floor of two look-backs before
		// the suffix, inside the slack under it.
		{ID: 3, Router: "r3", Type: capture.ConfigChange, Detail: "late",
			Time: netsim.VirtualTime(97500 * time.Millisecond)},
	}
	install := capture.IO{ID: 4, Router: "r2", Type: capture.RIBInstall,
		Proto: route.ProtoBGP, Prefix: pfx,
		Time: netsim.VirtualTime(100200 * time.Millisecond)}
	full := append(append([]capture.IO(nil), ios...), install)

	inc := hbr.NewIncremental(rules, nil)
	inc.Infer(ios)
	edgesEqual(t, inc.Infer(full), rules.Infer(full))

	// Demonstrate the pre-fix behaviour: with a slack far below the skew
	// the scan stops at the straggler and the recv→install edge is lost.
	old := hbr.NewIncremental(rules, nil)
	old.SkewSlack = time.Nanosecond
	old.Infer(ios)
	if g := old.Infer(full); slices.Contains(g.Parents(4), 2) {
		t.Fatal("slack-free scan unexpectedly found the edge; regression scenario no longer exercises the bug")
	}
	if !slices.Contains(rules.Infer(full).Parents(4), 2) {
		t.Fatal("full inference lost the recv→install edge; scenario broken")
	}
}

// TestIncrementalCompactedBaseline pins the ID-keyed coverage contract:
// after CompactBaseline the cache treats "pruned graph + retained window"
// as its baseline and keeps extending incrementally, with edge sets equal
// to full inference pruned at the same floor.
func TestIncrementalCompactedBaseline(t *testing.T) {
	rules := hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: time.Second}
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

// TestIncrementalCompact pins the one compaction sequence: fold the window,
// evict what lies below the retention floor (look-back plus twice the slack
// behind the newest event), move the baseline past it. An event exactly at
// the floor stays and one a nanosecond older goes; the folded graph equals a
// full inference pruned where the log now starts, and a second compaction
// finds nothing newly old.
func TestIncrementalCompact(t *testing.T) {
	rules := hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: time.Second}
	const slack = 250 * time.Millisecond
	newest := netsim.VirtualTime(30 * time.Second)
	floor := newest - netsim.VirtualTime(rules.LookbackWindow()+2*slack) // 28.5 s
	edit := func(at netsim.VirtualTime) capture.IO {
		return capture.IO{Router: "r1", Type: capture.ConfigChange, Detail: "edit", Time: at}
	}
	pairs := pairLog(10) // 10 s … 28.1 s
	for _, tc := range []struct {
		name    string
		ios     []capture.IO
		evicted int
	}{
		{"empty log", nil, 0},
		{"nothing old enough", []capture.IO{edit(floor), edit(floor + 1), edit(newest)}, 0},
		{"exactly below the floor", append(slices.Clone(pairs), edit(floor-1), edit(floor), edit(newest)), len(pairs) + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := capture.NewLog()
			log.AppendBatch(tc.ios)
			all := log.Snapshot()
			inc := hbr.NewIncremental(rules, nil)
			inc.SkewSlack = slack
			g, n := inc.Compact(log)
			if n != tc.evicted || log.Len() != len(all)-n {
				t.Fatalf("evicted %d, window %d of %d; want %d evicted", n, log.Len(), len(all), tc.evicted)
			}
			if len(all) == 0 {
				if _, _, warm := inc.CoveredWindow(); g != nil || warm {
					t.Fatalf("an empty log returned a graph (%v) or warmed the cache (%v)", g != nil, warm)
				}
				return
			}
			first := all[n].ID
			if covered, _, _ := inc.CoveredWindow(); covered != first || log.FirstID() != first {
				t.Fatalf("cache covers from %d, log from %d; want both from %d", covered, log.FirstID(), first)
			}
			if n > 0 && g.PrunedBelow() != first {
				t.Fatalf("graph pruned below %d, want %d", g.PrunedBelow(), first)
			}
			want := rules.Infer(all)
			want.PruneBefore(g.PrunedBelow())
			edgesEqual(t, g, want)
			if g.NodeCount() != want.NodeCount() {
				t.Fatalf("%d vertices, pruned full inference %d", g.NodeCount(), want.NodeCount())
			}
			if _, again := inc.Compact(log); again != 0 {
				t.Fatalf("a second compaction evicted %d", again)
			}
		})
	}
}

// TestSeedCheckpointResumesIncremental round-trips a compacted baseline
// through the checkpoint codec and checks the recovered cache produces
// edge-identical graphs to the uninterrupted one — the unit-level version
// of the daemon's crash-restart differential. The checkpoint falls between
// a send and its receive, so only a channel table that survives the trip
// pairs them.
func TestSeedCheckpointResumesIncremental(t *testing.T) {
	rules := hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: time.Second}
	ios := pairLog(10)

	inc1 := hbr.NewIncremental(rules, nil)
	inc1.Infer(ios[:11])
	inc1.CompactBaseline(5)

	cp := &hbg.Checkpoint{Graph: inc1.Infer(ios[4:11]), LastID: 11,
		FirstRetainedID: 5, Retained: append([]capture.IO(nil), ios[4:11]...)}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := hbg.DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(inc1.AppendChannels(nil))
	ch := hbr.ReadChannels(r)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("channel table round trip: %v, %d bytes left", r.Err(), r.Len())
	}

	reg := metrics.NewRegistry()
	inc2 := hbr.NewIncremental(rules, reg)
	inc2.SeedCheckpoint(rec.Graph, ch, rec.FirstRetainedID, rec.LastID)
	got := inc2.Infer(append(append([]capture.IO(nil), rec.Retained...), ios[11:]...))
	want := inc1.Infer(ios[4:])
	edgesEqual(t, got, want)
	if !slices.Contains(got.Parents(12), 11) {
		t.Fatal("the receive after the checkpoint lost the send before it")
	}
	if n := reg.Counter("infer.cache.misses").Value(); n != 0 {
		t.Fatalf("recovered cache fell back to full inference %d times, want 0", n)
	}
}

// TestIncrementalSendAfterReceiveFillsIt pins the unit of merge on a
// channel: a receive appended before its send — a merge by observed time
// puts it there when the sender's clock runs slow — waits on the table with
// no parent, and the send, when it arrives, gives it exactly that one edge.
// A second send on the channel is the next receive's, not this one's.
func TestIncrementalSendAfterReceiveFillsIt(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.0.0/16")
	at := func(ms int) netsim.VirtualTime {
		return netsim.VirtualTime(time.Second + time.Duration(ms)*time.Millisecond)
	}
	send := func(id uint64, ms int) capture.IO {
		return capture.IO{ID: id, Router: "a", Peer: "b", Type: capture.SendAdvert,
			Proto: route.ProtoBGP, Prefix: pfx, Time: at(ms)}
	}
	ios := []capture.IO{
		{ID: 1, Router: "b", Peer: "a", Type: capture.RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx, Time: at(100)},
		send(2, 0),
		send(3, 150),
	}
	inc := hbr.NewIncremental(hbr.Rules{}, nil)
	if g := inc.Infer(ios[:1]); len(g.Parents(1)) != 0 {
		t.Fatal("a receive with no send logged has a parent")
	}
	got := inc.Infer(ios)
	edgesEqual(t, got, hbr.Rules{}.Infer(ios))
	if want := []hbg.Edge{{From: 2, To: 1}}; !reflect.DeepEqual(got.Edges(), want) {
		t.Fatalf("edges = %v, want %v", got.Edges(), want)
	}
	if roots := got.RootCauses(1); len(roots) != 1 || roots[0].ID != 2 {
		t.Fatalf("RootCauses(1) = %v, want the first send alone", roots)
	}
}

// TestInferredGraphPointsIntoItsLog: an inferred graph's vertices are the
// events it was inferred over, not copies — a full inference's, the caller's
// slice; a cache's, every view of the log that extended it — and each
// leaves the graph by value as the event less its oracle fields.
func TestInferredGraphPointsIntoItsLog(t *testing.T) {
	ios := poisonedLog(t, 3)
	log, err := capture.RestoreLog(ios, 0)
	if err != nil {
		t.Fatal(err)
	}
	view := log.View()
	reg := metrics.NewRegistry()
	inc := hbr.NewIncremental(hbr.Rules{}, reg)
	inc.InferView(view.Slice(0, view.Len()/2))
	extended := inc.InferView(view)
	if n := reg.Timer("infer.incremental").Count(); n != 1 {
		t.Fatalf("%d extensions, want the second inference to extend the first", n)
	}
	for name, c := range map[string]struct {
		g  *hbg.Graph
		at func(int) *capture.IO
	}{
		"full":   {hbr.Rules{}.Infer(ios), func(i int) *capture.IO { return &ios[i] }},
		"extend": {extended, view.At},
	} {
		refs, nodes := c.g.Refs(), c.g.Nodes()
		if len(refs) != len(ios) || len(nodes) != len(ios) {
			t.Fatalf("%s: %d refs and %d nodes over %d events", name, len(refs), len(nodes), len(ios))
		}
		for i, ref := range refs {
			if ev := c.at(i); ref != ev {
				t.Fatalf("%s: vertex %d is a copy of its event, not the event", name, ref.ID)
			} else if !reflect.DeepEqual(nodes[i], ev.Stripped()) {
				t.Fatalf("%s: Nodes()[%d] = %+v, want %+v", name, i, nodes[i], ev.Stripped())
			}
		}
	}
}
