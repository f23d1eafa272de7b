// The twelve differential oracles checked after every convergence round.

package scenario

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/dist"
	"hbverify/internal/eqclass"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/localck"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
	"hbverify/internal/serve"
	"hbverify/internal/snapshot"
	"hbverify/internal/trie"
	"hbverify/internal/verify"
)

// Oracle names, as they appear in failures and artifacts.
const (
	OracleInferRef     = "infer-fast-vs-reference"
	OracleIncremental  = "incremental-vs-full"
	OracleCompaction   = "compaction-vs-full"
	OracleSnapshot     = "snapshot-consistency"
	OracleChecker      = "checker-determinism"
	OracleDist         = "dist-vs-central"
	OracleRepair       = "repair-rollback"
	OracleEqclassDelta = "eqclass-delta-vs-full"
	OracleSymbolic     = "symbolic-vs-probe"
	OracleInternCopy   = "intern-vs-copy"
	OracleServe        = "serve-vs-batch"
	OracleLocalCheck   = "localcheck-superset"
)

// oracleInternVsCopy asserts the interned Adj-RIB-In state matches the wire:
// every path a speaker retains must carry attributes exactly equal to some
// recorded recv-advert from that (router, peer, prefix). The recv I/O is
// captured before the attributes are interned, so a canonical table that
// aliases distinct attribute sets (the intern-alias mutation in
// .github/mutate.go) leaves the speaker holding attributes no wire message
// ever carried.
func (h *harness) oracleInternVsCopy(round int) *Failure {
	type recvKey struct {
		router string
		peer   netip.Addr
		prefix netip.Prefix
	}
	recvs := map[recvKey][]route.BGPAttrs{}
	for _, io := range h.w.net.Log.View().Stripped() {
		if io.Type == capture.RecvAdvert && io.Proto == route.ProtoBGP {
			k := recvKey{io.Router, io.PeerAddr, io.Prefix}
			recvs[k] = append(recvs[k], io.Attrs)
		}
	}
	for _, r := range h.w.net.Routers() {
		if r.BGP == nil {
			continue
		}
		for _, sess := range r.BGP.Sessions() {
			for _, msg := range r.BGP.AdjIn(sess.PeerAddr) {
				k := recvKey{r.Name, sess.PeerAddr, msg.Prefix}
				matched := false
				for _, a := range recvs[k] {
					if route.AttrsEqual(a, msg.Attrs) {
						matched = true
						break
					}
				}
				if !matched {
					return &Failure{Oracle: OracleInternCopy, Round: round, Detail: fmt.Sprintf(
						"%s adj-in[%v] %v holds attrs {lp=%d path=[%s]} matching none of %d recv-adverts",
						r.Name, sess.PeerAddr, msg.Prefix, msg.Attrs.LocalPref, msg.Attrs.PathString(), len(recvs[k]))}
				}
			}
		}
	}
	return nil
}

// inferRefCap bounds the log suffix the fast-vs-reference oracle compares
// on: the reference implementation is the old quadratic code, and the
// oracle runs every round, so the differential input is capped to keep
// soak runs affordable. Both sides always see the same input.
const inferRefCap = 1500

// oracleInferFastVsReference asserts the shared-index rule matcher — the
// one inference production runs — produces a graph identical in nodes and
// edges to the preserved pre-index reference implementation over the same
// stripped log.
func (h *harness) oracleInferFastVsReference(round int) *Failure {
	ios := h.w.net.Log.View().Stripped()
	if len(ios) > inferRefCap {
		ios = ios[len(ios)-inferRefCap:]
	}
	var rules hbr.Rules
	if d := graphDiffLabeled(rules.Infer(ios), hbr.ReferenceRules(rules, ios), "fast", "reference"); d != "" {
		return &Failure{Oracle: OracleInferRef, Round: round, Detail: "rules: " + d}
	}
	return nil
}

// graphDiffLabeled describes the lowest node, else the lowest edge, that
// only one of two graphs has, or "" when they are identical. The labels name
// the two sides in the reported detail.
func graphDiffLabeled(got, want *hbg.Graph, gl, wl string) string {
	gn, wn := nodeIDs(got.Nodes()), nodeIDs(want.Nodes())
	if !reflect.DeepEqual(gn, wn) {
		return fmt.Sprintf("node sets differ: %s=%d %s=%d (first diff: %s)", gl, len(gn), wl, len(wn),
			firstDiff(gn, wn, cmp.Compare[uint64], func(id uint64) string { return fmt.Sprintf("io %d", id) }, gl, wl))
	}
	ge, we := got.Edges(), want.Edges()
	if !reflect.DeepEqual(ge, we) {
		return fmt.Sprintf("edge sets differ: %s=%d %s=%d (first diff: %s)", gl, len(ge), wl, len(we),
			firstDiff(ge, we, compareEdges, func(e hbg.Edge) string { return fmt.Sprintf("%d->%d", e.From, e.To) }, gl, wl))
	}
	return ""
}

// derivedCuts is how many random cuts per round the incremental oracle
// compares on the derive path.
const derivedCuts = 3

// oracleIncrementalVsFull asserts the pipeline's graph is node- and
// edge-identical to a fresh full inference over the same stripped log,
// and then the same — plus the §5 verdict — for a few random cuts of it, each
// of which the pipeline's strategy must answer from its cached graph
// (hbr.Incremental's derive path) rather than by inferring again. A whole
// round's suffix has every send's receive in it, so a second cache takes the
// same log in seeded 1–64-event drips — boundaries between a send and its
// receive, inside SPF bursts — and must agree too, with no channel desync.
func (h *harness) oracleIncrementalVsFull(round int) *Failure {
	win := h.w.net.Log.View()
	ios := win.Stripped()
	full := h.full.Infer(ios)
	if d := graphDiffLabeled(h.p.Graph(), full, "incremental", "full"); d != "" {
		return &Failure{Oracle: OracleIncremental, Round: round, Detail: d}
	}
	// The drip cache's graph points at the events it is fed, so it reads the
	// log's window in place (the rules read no oracle field): fed this
	// round's copy, each round's suffix would keep that whole copy alive.
	for rng := deriveRNG(h.cfg.Seed, 0xd219+int64(round)); h.dripped < win.Len(); {
		h.dripped = min(win.Len(), h.dripped+1+rng.Intn(64))
		h.drip.InferView(win.Slice(0, h.dripped))
	}
	if d := graphDiffLabeled(h.drip.InferView(win), full, "dripped", "full"); d != "" {
		return &Failure{Oracle: OracleIncremental, Round: round, Detail: d}
	}
	// The simulator loses no log line and its sessions are FIFO, so the
	// channel table must pass over no message: one it did was filed under
	// the wrong channel or epoch.
	if n := h.dripMetrics.Counter("hbr.channel_desync").Value(); n != 0 {
		return &Failure{Oracle: OracleIncremental, Round: round, Detail: fmt.Sprintf(
			"the channel table passed over %d messages of a complete log (hbr.channel_desync)", n)}
	}

	// Each cut hides the newest events of one router for certain and of
	// every other with probability 1/3, so every cut hides something.
	rng := deriveRNG(h.cfg.Seed, 0xc075+int64(round))
	times := map[string][]netsim.VirtualTime{}
	for i := range ios {
		times[ios[i].Router] = append(times[ios[i].Router], ios[i].Time)
	}
	routers := h.w.net.Routers()
	for i := 0; i < derivedCuts; i++ {
		sure := rng.Intn(len(routers))
		cut := snapshot.Cut{}
		for j, r := range routers {
			if ts := times[r.Name]; len(ts) > 0 && (j == sure || rng.Intn(3) == 0) {
				cut[r.Name] = ts[len(ts)-1-rng.Intn(min(len(ts), 32))] - 1
			}
		}
		visible := snapshot.Collect(ios, cut)
		if len(visible) == len(ios) {
			continue
		}
		derived := h.p.Metrics.Timer("infer.derived").Count()
		got, want := h.p.Strategy.Infer(visible), h.full.Infer(visible)
		d := graphDiffLabeled(got, want, "derived", "full")
		if d == "" && !reflect.DeepEqual(snapshot.Check(got, h.w.isExternal), snapshot.Check(want, h.w.isExternal)) {
			d = "snapshot.Check verdicts differ"
		}
		if d == "" && h.p.Metrics.Timer("infer.derived").Count() == derived {
			d = "answered by a full inference, not derived from the cached graph"
		}
		if d != "" {
			return &Failure{Oracle: OracleIncremental, Round: round, Detail: fmt.Sprintf(
				"cut %v (%d of %d events visible): %s", cut, len(visible), len(ios), d)}
		}
	}
	return nil
}

// compactSlack is the clock-skew allowance of the compaction mirror:
// twice the worlds' worst per-router offset (buildWorld skews clocks by at
// most ±20ms), so the retention floor never evicts an event that a future
// straggler could still form an edge with.
const compactSlack = 40 * time.Millisecond

// compactRootSample bounds how many retained events the compaction oracle
// probes for root-cause equality each round; the oldest are sampled, where
// inherited roots from evicted history are most at risk.
const compactRootSample = 128

// oracleCompactionVsFull runs the stream daemon's bounded-memory discipline
// against the live log: newly captured (oracle-stripped) events append to a
// second capture log, which hbr.Incremental.Compact folds into its cache and
// bounds — events older than the retention floor, look-back plus twice the
// worst clock skew behind the newest capture, are evicted with their edges
// compacted into the cache baseline. The cached graph must stay node-,
// edge-, and root-cause identical to a fresh full inference
// over the complete log pruned at the same floor. The skip-fold mutation
// evicts without folding first — a compactor that trims the log ahead of its
// inference tick — which this oracle must catch.
func (h *harness) oracleCompactionVsFull(round int) *Failure {
	all := h.w.net.Log.View().Stripped()
	h.clog.AppendBatch(all[h.clog.TotalAppended():])
	h.cinc.Compact(h.clog)

	win := h.clog.View()
	got := h.cinc.InferView(win)
	want := h.cRules.Infer(all)
	want.PruneBefore(got.PrunedBelow())
	if d := graphDiffLabeled(got, want, "window", "full"); d != "" {
		return &Failure{Oracle: OracleCompaction, Round: round, Detail: fmt.Sprintf(
			"compacted window (%d of %d events retained, floor ID %d) diverges from pruned full inference: %s",
			win.Len(), len(all), got.PrunedBelow(), d)}
	}
	for i := 0; i < min(win.Len(), compactRootSample); i++ {
		id := win.At(i).ID
		if g, w := got.RootCauses(id), want.RootCauses(id); !reflect.DeepEqual(g, w) {
			return &Failure{Oracle: OracleCompaction, Round: round, Detail: fmt.Sprintf(
				"RootCauses(%d) diverge after compaction: window %v vs full %v", id, g, w)}
		}
	}
	return nil
}

func nodeIDs(ios []capture.IO) []uint64 {
	out := make([]uint64, len(ios))
	for i, io := range ios {
		out[i] = io.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// firstDiff names the lowest element only one of a and b holds, both
// ascending in order: as show renders it, followed by the label of the side
// that has it.
func firstDiff[T any](a, b []T, order func(T, T) int, show func(T) string, al, bl string) string {
	for i, j := 0, 0; i < len(a) || j < len(b); i, j = i+1, j+1 {
		switch {
		case j == len(b) || i < len(a) && order(a[i], b[j]) < 0:
			return show(a[i]) + " only in " + al
		case i == len(a) || order(a[i], b[j]) > 0:
			return show(b[j]) + " only in " + bl
		}
	}
	return "ordering"
}

// compareEdges orders edges as hbg.Graph.Edges lists them: by From, then To.
func compareEdges(a, b hbg.Edge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// oracleSnapshots checks the §5 snapshot machinery four ways:
// (a) replaying every captured FIB event reproduces the live FIBs exactly
// (no mixed-generation entries can survive a faithful replay);
// (b) a randomly lagged collection cut, extended by ConsistentCollect over a
// graph inferred per cut, reaches consistency whenever full-log inference
// itself is consistent;
// (c) any forwarding loop visible in the collected snapshot is a state the
// network could have been in — phantom loops are forbidden. §5 promises of a
// consistent cut a *possible* state, not an *instantaneous* one (DESIGN.md
// §5): what makes it possible is closure under ground-truth happens-before,
// so that is what is checked, with the simulator's causal tags;
// (d) the same cut closed by message accounting — ConsistentCut over the
// log's channel pairs, and Pipeline.VerifySnapshot, which closes it so —
// reaches the same final cut, verdict, WaitFor, Missing IDs and waits as (b).
// A cut (b) calls consistent must be closed under ground-truth
// happens-before (cutOpenAt), and by (d) so is the cut VerifySnapshot
// verifies on. Every round's cut is recorded in Result.Cuts.
// Of the mutations in .github/mutate.go, skip-cut-extension verifies the
// first cut unextended, which (c) must catch; fib-ancestry-only judges (b)'s
// graphs by the FIB updates' inferred ancestry alone, and stale-frontier
// keeps the pipeline's FIB replay when a cut hides part of it, both of which
// (d) must catch.
func (h *harness) oracleSnapshots(round int) *Failure {
	all := h.w.net.Log.Snapshot()
	stripped := capture.StripOracle(all)

	// (a) full-log replay == live FIBs.
	if detail := firstDifference(h.w.net.FIBSnapshot(), snapshot.BuildFIBs(stripped)); detail != "" {
		return &Failure{Oracle: OracleSnapshot, Round: round,
			Detail: "FIB replay diverges from live tables: " + detail}
	}

	// (b) lagged-cut collection reaches consistency.
	rng := deriveRNG(h.cfg.Seed, int64(round)+1)
	cut := snapshot.Cut{}
	now := h.w.net.Sched.Now()
	for _, r := range h.w.net.Routers() {
		if rng.Intn(2) == 0 {
			cut[r.Name] = now.Add(-randDuration(rng, 600))
		}
	}
	collected, final, res := snapshot.ConsistentCollect(stripped, cut, h.full.Infer, h.w.isExternal)
	if !res.Consistent {
		// Tolerate inference misses the full log shows too; only an
		// inconsistency *introduced* by cut collection is a failure.
		if full := snapshot.Check(h.full.Infer(stripped), h.w.isExternal); full.Consistent {
			return &Failure{Oracle: OracleSnapshot, Round: round, Detail: fmt.Sprintf(
				"extended cut stays inconsistent (missing %d, waiting for %v) though the full log is consistent",
				len(res.Missing), res.WaitFor)}
		}
	}
	h.cuts = append(h.cuts, SnapshotCut{Round: round, Consistent: res.Consistent, Waits: res.Waits})
	if res.Consistent {
		if open := h.cutOpenAt(all, collected); open != "" {
			return &Failure{Oracle: OracleSnapshot, Round: round, Detail: fmt.Sprintf(
				"cut %v, extended to %v, is called consistent while open: %s", cut, final, open)}
		}
	}

	// (d) message accounting reaches the graph's cut, and the pipeline's
	// frontier verifies what a cold replay under that cut does. A verdict on
	// the whole log first moves the frontier's FIB replay to the log's end,
	// so the lagged cut hides events the replay holds whenever it hides any.
	view := h.w.net.Log.View()
	tFinal, tRes := snapshot.ConsistentCut(view, cut, hbr.Pair(view), h.w.isExternal)
	h.p.VerifySnapshot(snapshot.Cut{}, nil)
	pRep, pRes := h.p.VerifySnapshot(cut, h.policies())
	graph, table, pipe := verdict(final, res), verdict(tFinal, tRes), verdict(tFinal, pRes)
	if table != graph || pipe != table {
		return &Failure{Oracle: OracleSnapshot, Round: round, Detail: fmt.Sprintf(
			"cut %v closed by message accounting differs from the graph's: graph %s, table %s, Pipeline.VerifySnapshot %s",
			cut, graph, table, pipe)}
	}
	cold := verify.NewChecker(dataplane.NewWalker(h.w.net.Topo, dataplane.SnapshotView(snapshot.ReplayFIBs(view, tFinal))), h.p.Sources)
	if coldRep := cold.Check(h.policies()); !reflect.DeepEqual(pRep.Results(), coldRep.Results()) {
		return &Failure{Oracle: OracleSnapshot, Round: round, Detail: fmt.Sprintf(
			"cut %v, closed to %v: Pipeline.VerifySnapshot (%s) walks otherwise than a cold replay of the cut (%s)",
			cut, tFinal, pRep.Summary(), coldRep.Summary())}
	}

	// (c) no phantom loops. A concrete (unbranched) loop is phantom if the
	// cut lacks part of the ground-truth ancestry of a FIB event it holds —
	// then no delay of messages produces this state — or if some router on
	// the loop never held the entry the snapshot gives it. Loops discovered
	// across ECMP branches get the second test alone: equal-cost sets let a
	// snapshot legitimately combine per-router states from
	// causally-independent events (OSPF floods an LSA before its debounced
	// SPF updates the FIB, so apply-before-advertise does not order them).
	fibs := snapshot.BuildFIBs(collected)
	w := dataplane.NewWalker(h.w.net.Topo, dataplane.SnapshotView(fibs))
	for _, src := range h.w.verifySources {
		for _, p := range []netip.Prefix{PrefixP, PrefixQ} {
			walk := w.ForwardPrefix(src, p)
			if walk.Outcome != dataplane.Looped {
				continue
			}
			loop := SnapshotLoop{Round: round, Source: src, Prefix: p, Concrete: walk.Branches == 0,
				EntriesReal: h.entriesWereReal(fibs, walk.Path, dataplane.Representative(p))}
			if loop.Concrete {
				loop.Open = h.cutOpenAt(all, collected)
			}
			h.loops = append(h.loops, loop)
			if loop.Open != "" {
				return &Failure{Oracle: OracleSnapshot, Round: round, Detail: fmt.Sprintf(
					"phantom loop in collected snapshot: %s from %s (%s), in a cut not closed under happens-before: %s",
					p, src, walk, loop.Open)}
			}
			if !loop.EntriesReal {
				return &Failure{Oracle: OracleSnapshot, Round: round, Detail: fmt.Sprintf(
					"phantom loop in collected snapshot: %s from %s (%s) traverses an entry no instantaneous state ever held",
					p, src, walk)}
			}
		}
	}
	return nil
}

// verdict renders a closure of a cut as (d) compares it: the final cut
// (fmt prints a map sorted), the verdict, WaitFor, the Missing IDs and the
// waits.
func verdict(c snapshot.Cut, r snapshot.Result) string {
	return fmt.Sprint(c, " consistent=", r.Consistent, " waitFor=", r.WaitFor, " missing=", nodeIDs(r.Missing), " waits=", r.Waits)
}

// SnapshotCut is the lagged cut the snapshot oracle closed in one round, as
// ConsistentCollect and Pipeline.VerifySnapshot both closed it.
type SnapshotCut struct {
	Round      int
	Consistent bool
	Waits      int // horizons advanced to close it
}

// SnapshotLoop is one forwarding loop the snapshot oracle met in a collected
// cut, with the facts it was judged by.
type SnapshotLoop struct {
	Round    int
	Source   string
	Prefix   netip.Prefix
	Concrete bool // no ECMP branch on the walk
	// Open names an event the cut lacks from the ground-truth ancestry of a
	// FIB event in it; empty when there is none (concrete loops only).
	Open string
	// EntriesReal: every router on the loop held that entry at some instant.
	EntriesReal bool
}

// cutOpenAt walks the Causes of every collected FIB event transitively,
// stopping — as snapshot.Check's closure does — at advertisements received
// from external peers, and describes the first ancestor the cut lacks ("" when
// it is closed). all is the unstripped log the cut was taken from.
func (h *harness) cutOpenAt(all, collected []capture.IO) string {
	first := all[0].ID
	in := make([]bool, len(all))
	var work []uint64
	for i := range collected {
		in[collected[i].ID-first] = true
		if t := collected[i].Type; t == capture.FIBInstall || t == capture.FIBRemove {
			work = append(work, collected[i].ID)
		}
	}
	seen := make([]bool, len(all))
	for len(work) > 0 {
		io := &all[work[len(work)-1]-first]
		work = work[:len(work)-1]
		if (io.Type == capture.RecvAdvert || io.Type == capture.RecvWithdraw) && h.w.isExternal(io.Peer) {
			continue
		}
		for _, c := range io.Causes {
			if seen[c-first] {
				continue
			}
			if !in[c-first] {
				return fmt.Sprintf("%s depends on uncollected %s", io, &all[c-first])
			}
			seen[c-first] = true
			work = append(work, c)
		}
	}
	return ""
}

// fibEventsTrueTime returns the FIB install/remove events in true-time
// order — the ground-truth replay input for entriesWereReal.
func (h *harness) fibEventsTrueTime() []capture.IO {
	var evs []capture.IO
	for _, io := range h.w.net.Log.Snapshot() {
		if io.Type == capture.FIBInstall || io.Type == capture.FIBRemove {
			evs = append(evs, io)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TrueTime != evs[j].TrueTime {
			return evs[i].TrueTime < evs[j].TrueTime
		}
		return evs[i].ID < evs[j].ID
	})
	return evs
}

// entriesWereReal replays ground truth and reports whether, for every
// router on the walk, the snapshot's covering entry for dst (including its
// full next-hop set) matched the router's live covering entry at some
// instant. It is the per-entry ground truth for loops in a snapshot.
func (h *harness) entriesWereReal(snap map[string]*trie.Trie[fib.Entry], routers []string, dst netip.Addr) bool {
	need := map[string]fib.Entry{}
	for _, r := range routers {
		if e, _, ok := snap[r].Lookup(dst); ok {
			need[r] = e
		}
	}
	fibs := map[string]*trie.Trie[fib.Entry]{}
	for _, r := range h.w.net.Routers() {
		fibs[r.Name] = trie.New[fib.Entry]()
	}
	for _, io := range h.fibEventsTrueTime() {
		if io.Type == capture.FIBInstall {
			_ = fibs[io.Router].Insert(io.Prefix, fib.EntryOf(&io))
		} else {
			fibs[io.Router].Delete(io.Prefix)
		}
		want, needed := need[io.Router]
		if !needed || !io.Prefix.Contains(dst) {
			continue
		}
		if got, _, ok := fibs[io.Router].Lookup(dst); ok && got.Equal(want) {
			delete(need, io.Router)
			if len(need) == 0 {
				return true
			}
		}
	}
	return len(need) == 0
}

// firstDifference describes one entry that differs under Entry.Equal
// between want and got, at the first router by name whose FIBs differ;
// "" when every router's FIBs are equal.
func firstDifference(want, got map[string]*trie.Trie[fib.Entry]) string {
	var routers []string
	for r := range want {
		routers = append(routers, r)
	}
	for r := range got {
		if _, ok := want[r]; !ok {
			routers = append(routers, r)
		}
	}
	sort.Strings(routers)
	for _, r := range routers {
		installs, removes := fib.Diff(want[r], got[r])
		if len(removes) > 0 {
			return fmt.Sprintf("%s: %s missing", r, removes[0])
		}
		if len(installs) > 0 {
			if w, ok := want[r].Exact(installs[0].Prefix); ok {
				return fmt.Sprintf("%s: %s, want %s", r, installs[0], w)
			}
			return fmt.Sprintf("%s: %s unexpected", r, installs[0])
		}
	}
	return ""
}

// policies is the scenario's standing policy set: reachability, loop- and
// blackhole-freedom for both destination prefixes from every internal
// router. Violations are expected under churn — the oracles compare
// verdicts, not validity.
func (h *harness) policies() []verify.Policy {
	var out []verify.Policy
	for _, p := range []netip.Prefix{PrefixP, PrefixQ} {
		out = append(out,
			verify.Policy{Kind: verify.Reachable, Prefix: p},
			verify.Policy{Kind: verify.NoLoop, Prefix: p},
			verify.Policy{Kind: verify.NoBlackhole, Prefix: p})
	}
	return out
}

func (h *harness) liveWalker() *dataplane.Walker { return h.w.net.LiveWalker() }

// oracleCheckerDeterminism asserts verify.Checker reports identical
// violation lists for 1 worker, GOMAXPROCS workers, and a repeated run.
func (h *harness) oracleCheckerDeterminism(round int) *Failure {
	pols := h.policies()
	walker := h.liveWalker()
	run := func(workers int) verify.Report {
		c := verify.NewChecker(walker, h.w.verifySources)
		c.Workers = workers
		return c.Check(pols)
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial.Violations, parallel.Violations) {
		return &Failure{Oracle: OracleChecker, Round: round, Detail: fmt.Sprintf(
			"worker counts disagree: 1 worker found %d violations, %d workers found %d",
			len(serial.Violations), runtime.GOMAXPROCS(0), len(parallel.Violations))}
	}
	if again := run(1); !reflect.DeepEqual(serial.Violations, again.Violations) {
		return &Failure{Oracle: OracleChecker, Round: round, Detail: fmt.Sprintf(
			"repeated runs disagree: %d vs %d violations", len(serial.Violations), len(again.Violations))}
	}
	return nil
}

// probeEnumLimit bounds concrete-path enumeration in the symbolic-vs-probe
// oracle; a walk whose DAG exceeds it is skipped rather than compared
// against a truncated aggregate.
const probeEnumLimit = 1024

// oracleSymbolicVsProbe is the set-vs-probe differential: for every
// (source, destination) the harness verifies, and toward every prefix an
// ECMP-static event may install, it enumerates every concrete
// single-next-hop path through the symbolic walk's ECMP DAG with the probe
// walker, aggregates those per-path outcomes independently, and requires
// the aggregate to reproduce the symbolic walk's outcome and egress set —
// and every probe to traverse only edges the symbolic DAG recorded, and,
// when no probe loops, the routers all probes share to be the walk's
// Through list. No protocol carries a static, so an ECMP static's fan-out
// ends in one dropped branch per neighbour: the DAGs with several
// terminals. The drop-ecmp-branch mutation makes the symbolic side
// silently skip the last member of each multi-way branch, which the
// edge-coverage check must catch; waypoint-one-terminal makes Through the
// routers on the trajectories to one terminal alone.
func (h *harness) oracleSymbolicVsProbe(round int) *Failure {
	walker := h.liveWalker()
	for _, p := range append([]netip.Prefix{PrefixP, PrefixQ}, ecmpStaticPrefixes...) {
		dst := dataplane.Representative(p)
		for _, src := range h.w.verifySources {
			w := walker.Forward(src, dst)
			probes := walker.ConcretePaths(src, dst, probeEnumLimit)
			if len(probes) >= probeEnumLimit {
				continue // truncated enumeration: aggregate would be partial
			}
			aggOut, aggEgress := dataplane.AggregateProbes(probes)
			if aggOut != w.Outcome {
				return &Failure{Oracle: OracleSymbolic, Round: round, Detail: fmt.Sprintf(
					"%s->%s: symbolic outcome %s, but %d concrete probes aggregate to %s",
					src, dst, w.Outcome, len(probes), aggOut)}
			}
			symEgress := w.Egresses
			if symEgress == nil && w.Egress != "" {
				symEgress = []string{w.Egress}
			}
			if !reflect.DeepEqual(append([]string{}, aggEgress...), append([]string{}, symEgress...)) {
				return &Failure{Oracle: OracleSymbolic, Round: round, Detail: fmt.Sprintf(
					"%s->%s: symbolic egresses %v, probes exit at %v", src, dst, symEgress, aggEgress)}
			}
			if w.Branches == 0 && len(probes) != 1 {
				// A branch-dropping symbolic walker degrades a genuine ECMP
				// fan-out into an apparently concrete path; the probe count
				// exposes the branches it never explored.
				return &Failure{Oracle: OracleSymbolic, Round: round, Detail: fmt.Sprintf(
					"%s->%s: symbolic walk claims an unbranched path %v, but %d concrete paths exist",
					src, dst, w.Path, len(probes))}
			}
			if w.Branches > 0 {
				edges := map[[2]string]bool{}
				for _, e := range w.Edges {
					edges[e] = true
				}
				for _, pw := range probes {
					path := pw.Path
					for i := 0; i+1 < len(path); i++ {
						if !edges[[2]string{path[i], path[i+1]}] {
							return &Failure{Oracle: OracleSymbolic, Round: round, Detail: fmt.Sprintf(
								"%s->%s: probe path %v traverses %s->%s, absent from the symbolic DAG (%d edges, %d branches)",
								src, dst, path, path[i], path[i+1], len(w.Edges), w.Branches)}
						}
					}
				}
				shared := slices.Clone(probes[0].Path)
				for _, pw := range probes[1:] {
					shared = slices.DeleteFunc(shared, func(r string) bool { return !slices.Contains(pw.Path, r) })
				}
				if w.Outcome != dataplane.Looped && !reflect.DeepEqual(shared, w.Through) {
					return &Failure{Oracle: OracleSymbolic, Round: round, Detail: fmt.Sprintf(
						"%s->%s: symbolic walk puts %v on every trajectory, but its %d concrete probes share %v",
						src, dst, w.Through, len(probes), shared)}
				}
			} else if len(probes) == 1 && w.Outcome != dataplane.Looped &&
				!reflect.DeepEqual(probes[0].Path, w.Path) {
				return &Failure{Oracle: OracleSymbolic, Round: round, Detail: fmt.Sprintf(
					"%s->%s: unbranched symbolic path %v differs from concrete probe %v",
					src, dst, w.Path, probes[0].Path)}
			}
		}
	}
	return nil
}

// oracleDistVsCentral runs one checker twice — over the central executor
// and over the harness's fleet, a node per router, externals included, so
// walks traverse the same graph the central walker sees — and asserts every
// check was answered by the same walk, field for field: the fleet's
// replay of the collected expansions must reproduce the central DFS's
// outcome, path, egresses, edges and branch count. The fleet lives for the
// whole run, so each round's nodes hold what the view syncs shipped them;
// the ECMP-static prefixes, whose walks fan out to several terminals and
// whose statics come and go, are checked for reachability beside P and Q.
// The drop-batch mutation makes the fleet lose every batch bound for
// one node while still reporting success, and fleet-drops-removes ships
// installs only, both of which this oracle must catch.
func (h *harness) oracleDistVsCentral(round int) *Failure {
	ck := verify.NewChecker(h.liveWalker(), h.w.verifySources)
	pols := h.policies()
	for _, p := range ecmpStaticPrefixes {
		pols = append(pols, verify.Policy{Kind: verify.Reachable, Prefix: p})
	}
	want := ck.Check(pols).Results()
	stats, err := h.fleet.Verify(ck, pols)
	for i, g := range stats.Report.Results() {
		w := want[i]
		if g.Err != nil {
			return &Failure{Oracle: OracleDist, Round: round, Detail: fmt.Sprintf(
				"walk %s->%s failed: %v", g.Source, w.Walk.Dst, g.Err)}
		}
		if !reflect.DeepEqual(g.Walk, w.Walk) {
			return &Failure{Oracle: OracleDist, Round: round, Detail: fmt.Sprintf(
				"walk from %s diverges: distributed %v (egress %q, edges %v), central %v (egress %q, edges %v)",
				g.Source, g.Walk, g.Walk.Egress, g.Walk.Edges, w.Walk, w.Walk.Egress, w.Walk.Edges)}
		}
	}
	if err != nil {
		return &Failure{Oracle: OracleDist, Round: round, Detail: fmt.Sprintf("fleet round: %v", err)}
	}
	return nil
}

// oracleLocalSuperset is the local-check soundness oracle: per-router
// invariant checks over distance labels must flag a superset of the
// central walker's violations — any (policy, source) check the central
// walker fails must either belong to a forwarding class some router's
// local check flagged, or start at a router the label epoch could not
// vouch for (label Unreachable, the escalate-by-staleness rule). It
// asserts this twice per round: on the converged views, and on
// update-in-flight snapshots where one delivering router's covering
// entries are withdrawn while the labels stay at the pre-update epoch —
// exactly the state a node validates mid-churn, before any relabel.
// The skip-local-check mutation silences every local checker while leaving
// the labels intact, which the in-flight phase must catch.
func (h *harness) oracleLocalSuperset(round int) *Failure {
	classes := []netip.Prefix{PrefixP, PrefixQ}
	views := map[string]dist.LocalView{}
	var routers []string
	for _, r := range h.w.net.Routers() {
		views[r.Name] = dist.LocalViewOf(r)
		routers = append(routers, r.Name)
	}
	ls := localck.Derive(routers, classes, func(r string, class netip.Prefix) dataplane.Expansion {
		return views[r].Expand(dataplane.Representative(class))
	}, uint64(round)+1)

	if f := h.localSuperset(round, "converged", views, routers, ls); f != nil {
		return f
	}

	// Update-in-flight snapshots: for each class, withdraw the covering
	// entries from the first labeled, non-delivering verify source's view
	// copy and re-check against the unchanged labels.
	for _, class := range classes {
		victim := ""
		for _, src := range h.w.verifySources {
			if ls.Label(src, class) > 0 {
				victim = src
				break
			}
		}
		if victim == "" {
			continue // class delivered locally or unreachable everywhere: no in-flight state to model
		}
		rep := dataplane.Representative(class)
		v := views[victim]
		cut := dist.LocalView{Router: v.Router, Loopback: v.Loopback, Ifaces: v.Ifaces, FIB: trie.New[fib.Entry]()}
		v.FIB.Walk(func(p netip.Prefix, e fib.Entry) bool {
			if !p.Contains(rep) {
				_ = cut.FIB.Insert(p, e)
			}
			return true
		})
		mutated := map[string]dist.LocalView{}
		for r, mv := range views {
			mutated[r] = mv
		}
		mutated[victim] = cut
		stage := fmt.Sprintf("in-flight %s@%s", class, victim)
		if f := h.localSuperset(round, stage, mutated, routers, ls); f != nil {
			return f
		}
	}
	return nil
}

// localSuperset checks the superset property for one set of views against
// one label epoch: flagged classes from per-router local checks must
// cover every central violation whose source the labels vouch for.
func (h *harness) localSuperset(round int, stage string, views map[string]dist.LocalView, routers []string, ls *localck.LabelSet) *Failure {
	flagged := map[netip.Prefix]bool{}
	for _, r := range routers {
		v := views[r]
		ck := localck.Checker{Labels: v.Labels(ls)}
		for _, viol := range ck.Check(r, v.ClassState) {
			flagged[viol.Prefix] = true
		}
	}

	fibs := map[string]*trie.Trie[fib.Entry]{}
	for r, v := range views {
		fibs[r] = v.FIB
	}
	walker := dataplane.NewWalker(h.w.net.Topo, dataplane.SnapshotView(fibs))
	rep := verify.NewChecker(walker, h.w.verifySources).Check(h.policies())
	for _, viol := range rep.Violations {
		class := viol.Policy.Prefix
		if flagged[class] {
			continue
		}
		if ls.Label(viol.Source, class) < 0 {
			continue // source unlabeled at this epoch: escalated by staleness, not by a local flag
		}
		return &Failure{Oracle: OracleLocalCheck, Round: round, Detail: fmt.Sprintf(
			"%s: central violation %s from %s (class %s) not covered: class unflagged by local checks and source labeled %d",
			stage, viol.Policy, viol.Source, class, ls.Label(viol.Source, class))}
	}
	return nil
}

// faultNextHop is an unreachable next hop (TEST-NET-1); a static route
// through it wins FIB arbitration at distance 1 and blackholes the prefix.
var faultNextHop = netip.MustParseAddr("192.0.2.254")

// oracleRepairRollback injects a faulty static route for P on a router
// that can currently reach P, lets the pipeline detect the violation, trace
// it through the HBG and roll back the root-cause config version, and
// asserts the network reconverges to the exact pre-fault data plane.
// The skip-rollback mutation reports a rollback it never applies, which the
// data-plane comparison must catch.
func (h *harness) oracleRepairRollback(round int) *Failure {
	// Let the round's churn age out of the 500ms rule window so the fault's
	// FIB update can only be attributed to the fault config change.
	if err := advance(h.w.net, roundGap); err != nil {
		return &Failure{Oracle: OracleRepair, Round: round, Detail: fmt.Sprintf("advance: %v", err)}
	}
	walker := h.liveWalker()
	live := h.w.net.FIBSnapshot()
	victim := ""
	for _, src := range h.w.verifySources {
		// A router that owns P as a connected stub is immune to the fault:
		// the connected route's distance 0 beats the static's 1.
		if e, _ := live[src].Exact(PrefixP); e.Proto == route.ProtoConnected {
			continue
		}
		if walker.ForwardPrefix(src, PrefixP).Outcome == dataplane.Delivered {
			victim = src
			break
		}
	}
	if victim == "" {
		return nil // P unreachable everywhere (e.g. shrink stranded a partition): nothing to repair
	}

	pre := h.w.net.FIBSnapshot()
	if _, err := h.w.net.UpdateConfig(victim, "inject faulty static for P", func(c *config.Router) {
		c.Statics = append(c.Statics, config.StaticRoute{Prefix: PrefixP, NextHop: faultNextHop})
	}); err != nil {
		return &Failure{Oracle: OracleRepair, Round: round, Detail: fmt.Sprintf("inject: %v", err)}
	}
	if err := h.w.net.Run(); err != nil {
		return &Failure{Oracle: OracleRepair, Round: round, Detail: fmt.Sprintf("fault convergence: %v", err)}
	}

	pols := []verify.Policy{{Kind: verify.NoBlackhole, Prefix: PrefixP, Sources: []string{victim}}}
	d, err := h.p.DetectAndRepair(pols)
	if d.Report.OK() {
		return &Failure{Oracle: OracleRepair, Round: round,
			Detail: fmt.Sprintf("injected blackhole on %s not detected", victim)}
	}
	if err != nil {
		return &Failure{Oracle: OracleRepair, Round: round, Detail: fmt.Sprintf(
			"repair failed on %s: %v (fault=%s, %d roots)", victim, err, d.Fault, len(d.Roots))}
	}
	if !d.RolledBack || d.RollbackRouter != victim {
		return &Failure{Oracle: OracleRepair, Round: round,
			Detail: fmt.Sprintf("rollback targeted %q, want %q", d.RollbackRouter, victim)}
	}
	if err := h.w.net.Run(); err != nil {
		return &Failure{Oracle: OracleRepair, Round: round, Detail: fmt.Sprintf("repair convergence: %v", err)}
	}

	post := h.w.net.FIBSnapshot()
	if detail := firstDifference(pre, post); detail != "" {
		return &Failure{Oracle: OracleRepair, Round: round,
			Detail: "data plane differs from pre-fault state after repair: " + detail}
	}
	if rep := verify.NewChecker(h.liveWalker(), h.w.verifySources).Check(pols); !rep.OK() {
		return &Failure{Oracle: OracleRepair, Round: round,
			Detail: "violation persists after repair: " + rep.Violations[0].String()}
	}
	return nil
}

// oracleEqclassDelta asserts the pipeline's delta verification path is
// equivalent to the from-scratch one: its incremental classifier (fed only
// FIB updates since its seed) must produce the identical class partition to
// a fresh eqclass.Compute over the live FIBs, and its cached-walk Verify
// must report the identical violation list to a cold checker with no cache.
func (h *harness) oracleEqclassDelta(round int) *Failure {
	incClasses := h.p.Classes()
	fullClasses := eqclass.Compute(h.w.net.FIBSnapshot(), nil)
	if d := diffClasses(incClasses, fullClasses); d != "" {
		return &Failure{Oracle: OracleEqclassDelta, Round: round,
			Detail: "incremental classes diverge from full Compute: " + d}
	}

	pols := h.policies()
	cachedRep := h.p.Verify(pols)
	coldRep := verify.NewChecker(h.liveWalker(), h.w.verifySources).Check(pols)
	if !reflect.DeepEqual(cachedRep.Violations, coldRep.Violations) {
		return &Failure{Oracle: OracleEqclassDelta, Round: round, Detail: fmt.Sprintf(
			"cached-walk checker diverges from cold checker: %d violations (%d walks cached) vs %d",
			len(cachedRep.Violations), cachedRep.Cached, len(coldRep.Violations))}
	}
	return nil
}

// oracleServeVsBatch asserts the pipeline's concurrent query engine is
// answer-equivalent to batch verification: for every (policy, source) the harness
// checks, the engine's verdict must match a cold Checker's over the same
// live state, and the walk backing the verdict must equal the cold
// walker's field for field, whatever destination in the class the plan
// walked, however the plan was obtained (shared-cache hit, coalesced
// flight, or fresh execution). Beside P and Q it queries reachability of
// the ECMP-static prefixes, whose walks branch to several terminals. The
// engine persists across rounds, so plans cached in earlier rounds must have
// been invalidated by the interleaving churn; the stale-plan mutation pins
// each plan's first walk forever, which this oracle must catch as soon as a
// queried plan's forwarding actually changes.
func (h *harness) oracleServeVsBatch(round int) *Failure {
	pols := h.policies()
	for _, p := range ecmpStaticPrefixes {
		pols = append(pols, verify.Policy{Kind: verify.Reachable, Prefix: p})
	}
	coldRep := verify.NewChecker(h.liveWalker(), h.w.verifySources).Check(pols)
	coldBad := map[string]bool{}
	for _, v := range coldRep.Violations {
		coldBad[v.Policy.String()+"|"+v.Source] = true
	}
	walker := h.liveWalker()
	for _, pol := range pols {
		for _, src := range h.w.verifySources {
			ans, err := h.serve.Query(serve.Query{Policy: pol, Source: src})
			if err != nil {
				return &Failure{Oracle: OracleServe, Round: round, Detail: fmt.Sprintf(
					"query %s from %s failed: %v", pol, src, err)}
			}
			if bad := coldBad[pol.String()+"|"+src]; ans.OK == bad {
				return &Failure{Oracle: OracleServe, Round: round, Detail: fmt.Sprintf(
					"query %s from %s: serve verdict ok=%v (plan %s, hit=%v), batch check ok=%v",
					pol, src, ans.OK, ans.PlanKey, ans.CacheHit, !bad)}
			}
			want := walker.Forward(src, dataplane.Representative(pol.Prefix))
			// A plan walks its class's representative, which may not be
			// this prefix's.
			got := ans.Walk
			got.Dst = want.Dst
			if !reflect.DeepEqual(got, want) {
				return &Failure{Oracle: OracleServe, Round: round, Detail: fmt.Sprintf(
					"query %s from %s: served walk %s via %v (egress %q, plan %s, hit=%v) diverges from fresh walk %s via %v (egress %q)",
					pol, src, ans.Walk.Outcome, ans.Walk.Path, ans.Walk.Egress, ans.PlanKey, ans.CacheHit,
					want.Outcome, want.Path, want.Egress)}
			}
		}
	}
	return nil
}

// diffClasses compares two class partitions in canonical order.
func diffClasses(a, b []eqclass.Class) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d classes vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Signature != b[i].Signature {
			return fmt.Sprintf("class %d signature %q vs %q", i, a[i].Signature, b[i].Signature)
		}
		if !reflect.DeepEqual(a[i].Prefixes, b[i].Prefixes) {
			return fmt.Sprintf("class %d (%s): %d members vs %d (first incremental member %v)",
				i, a[i].Signature, len(a[i].Prefixes), len(b[i].Prefixes), a[i].Prefixes[0])
		}
	}
	return ""
}

// randDuration draws a uniform duration in [0, maxMillis) milliseconds.
func randDuration(rng *rand.Rand, maxMillis int64) time.Duration {
	return time.Duration(rng.Int63n(maxMillis * int64(time.Millisecond)))
}
