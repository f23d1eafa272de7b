// The twelve differential oracles checked after every convergence round.

package scenario

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
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
// aliases distinct attribute sets (BugInternAlias) leaves the speaker
// holding attributes no wire message ever carried.
func (h *harness) oracleInternVsCopy(round int) *Failure {
	type recvKey struct {
		router string
		peer   netip.Addr
		prefix netip.Prefix
	}
	recvs := map[recvKey][]route.BGPAttrs{}
	for _, io := range h.w.net.Log.View().Stripped(nil) {
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
// on: the reference implementations are the old quadratic code, and the
// oracle runs every round, so the differential input is capped to keep
// soak runs affordable. Both sides always see the same input.
const inferRefCap = 1500

// oracleInferFastVsReference asserts every shared-index strategy — the
// full §4.2 lineup — produces a graph identical in nodes, edges, and
// per-edge confidences to the preserved pre-index reference
// implementation over the same stripped log.
func (h *harness) oracleInferFastVsReference(round int) *Failure {
	ios := h.w.net.Log.View().Stripped(nil)
	if len(ios) > inferRefCap {
		ios = ios[len(ios)-inferRefCap:]
	}
	fast := hbr.Strategies(ios, 0)
	ref := hbr.ReferenceStrategies(ios, 0)
	for i := range fast {
		if d := graphDiff(fast[i].Infer(ios), ref[i].Infer(ios)); d != "" {
			return &Failure{Oracle: OracleInferRef, Round: round, Detail: fmt.Sprintf(
				"strategy %s: %s", fast[i].Name(), d)}
		}
	}
	return nil
}

// graphDiff describes the first node, edge, or confidence difference
// between two graphs, or "" when they are identical. The labels name the
// two sides in the reported detail.
func graphDiff(got, want *hbg.Graph) string { return graphDiffLabeled(got, want, "fast", "reference") }

func graphDiffLabeled(got, want *hbg.Graph, gl, wl string) string {
	gn, wn := nodeIDs(got.Nodes()), nodeIDs(want.Nodes())
	if !reflect.DeepEqual(gn, wn) {
		return fmt.Sprintf("node sets differ: %s=%d %s=%d (first diff: %s)",
			gl, len(gn), wl, len(wn), firstIDDiff(gn, wn))
	}
	ge, we := got.Edges(), want.Edges()
	if !reflect.DeepEqual(ge, we) {
		return fmt.Sprintf("edge sets differ: %s=%d %s=%d (first diff: %s)",
			gl, len(ge), wl, len(we), firstEdgeDiff(ge, we))
	}
	for _, e := range ge {
		if gc, wc := got.Confidence(e.From, e.To), want.Confidence(e.From, e.To); gc != wc {
			return fmt.Sprintf("confidence(%d->%d) differs: %s=%v %s=%v", e.From, e.To, gl, gc, wl, wc)
		}
	}
	return ""
}

// derivedCuts is how many random cuts per round the incremental oracle
// compares on the derive path.
const derivedCuts = 3

// oracleIncrementalVsFull asserts the incremental strategy's graph is
// node-, edge- and confidence-identical to a fresh full inference over the
// same stripped log, and then the same — plus the §5 verdict — for a few
// random cuts of it, each of which the strategy must answer from its cached
// graph (hbr.Incremental's derive path) rather than by inferring again, both
// as a collected slice and by the IDs the cut hides from the live log's view.
// BugStaleDerive skips the re-derivation a cut's graph needs, which either
// comparison must catch. A whole round's suffix has no old event within a
// cross window of it, so a second cache takes the same log in seeded
// 1–64-event drips — boundaries between a send and its receive, inside SPF
// bursts — and must agree too; BugNarrowTail is what only it can see.
func (h *harness) oracleIncrementalVsFull(round int) *Failure {
	ios := h.w.net.Log.View().Stripped(nil)
	full := h.full.Infer(ios)
	if d := graphDiffLabeled(h.strat.Infer(ios), full, "incremental", "full"); d != "" {
		return &Failure{Oracle: OracleIncremental, Round: round, Detail: d}
	}
	for rng := deriveRNG(h.cfg.Seed, 0xd219+int64(round)); h.dripped < len(ios); {
		h.dripped = min(len(ios), h.dripped+1+rng.Intn(64))
		h.drip.Infer(ios[:h.dripped])
	}
	if d := graphDiffLabeled(h.drip.Infer(ios), full, "dripped", "full"); d != "" {
		return &Failure{Oracle: OracleIncremental, Round: round, Detail: d}
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
		derived := h.reg.Timer("infer.derived").Count()
		got, want := h.strat.Infer(visible), h.full.Infer(visible)
		d := graphDiffLabeled(got, want, "derived", "full")
		if d == "" && !reflect.DeepEqual(snapshot.Check(got, h.w.isExternal), snapshot.Check(want, h.w.isExternal)) {
			d = "snapshot.Check verdicts differ"
		}
		if d == "" && h.cfg.Bug != BugStaleCache && h.reg.Timer("infer.derived").Count() == derived {
			d = "answered by a full inference, not derived from the cached graph"
		}
		// The same cut as Pipeline.VerifySnapshot asks for it: by the IDs it
		// hides, over a view of the live, unstripped log.
		if live := h.w.net.Log.View(); d == "" && h.cfg.Bug != BugStaleCache {
			if g := h.inc.Cached(live, snapshot.Hidden(live, cut)); g == nil {
				d = "the cut of the log's view was not derived from the cached graph"
			} else {
				d = graphDiffLabeled(g, want, "derived over the view", "full")
			}
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

// oracleCompactionVsFull mirrors the stream daemon's bounded-memory
// discipline against the live log: newly captured (oracle-stripped)
// events append to a retained window, the window is folded into an
// incremental cache, and events older than the retention floor —
// look-back plus twice the worst clock skew behind the newest capture —
// are evicted with their edges compacted into the cache baseline. The
// cached graph must stay node-, edge-, confidence-, and root-cause
// identical to a fresh full inference over the complete log pruned at the
// same floor. BugSkipFold evicts without folding first — a compactor that
// trims the log ahead of its inference tick — which this oracle must
// catch.
func (h *harness) oracleCompactionVsFull(round int) *Failure {
	all := h.w.net.Log.View().Stripped(nil)
	h.cwin = append(h.cwin, all[h.cseen:]...)
	h.cseen = len(all)
	if len(h.cwin) == 0 {
		return nil
	}
	if h.cfg.Bug != BugSkipFold {
		h.cinc.Infer(h.cwin) // fold the window before evicting from it
	}
	retain := netsim.VirtualTime(h.cRules.LookbackWindow() + 2*compactSlack)
	floor := h.cwin[len(h.cwin)-1].Time - retain
	cut := 0
	for cut < len(h.cwin)-1 && h.cwin[cut].Time < floor {
		cut++
	}
	if cut > 0 {
		h.cinc.CompactBaseline(h.cwin[cut].ID)
		h.cwin = append(h.cwin[:0], h.cwin[cut:]...)
	}

	got := h.cinc.Infer(h.cwin)
	want := h.cRules.Infer(all)
	want.PruneBefore(got.PrunedBelow())
	if d := graphDiffLabeled(got, want, "window", "full"); d != "" {
		return &Failure{Oracle: OracleCompaction, Round: round, Detail: fmt.Sprintf(
			"compacted window (%d of %d events retained, floor ID %d) diverges from pruned full inference: %s",
			len(h.cwin), len(all), got.PrunedBelow(), d)}
	}
	sample := h.cwin
	if len(sample) > compactRootSample {
		sample = sample[:compactRootSample]
	}
	for _, io := range sample {
		if g, w := got.RootCauses(io.ID), want.RootCauses(io.ID); !reflect.DeepEqual(g, w) {
			return &Failure{Oracle: OracleCompaction, Round: round, Detail: fmt.Sprintf(
				"RootCauses(%d) diverge after compaction: window %v vs full %v", io.ID, g, w)}
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

func firstIDDiff(a, b []uint64) string {
	in := func(s []uint64, v uint64) bool {
		i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
		return i < len(s) && s[i] == v
	}
	for _, v := range a {
		if !in(b, v) {
			return fmt.Sprintf("io %d only in incremental", v)
		}
	}
	for _, v := range b {
		if !in(a, v) {
			return fmt.Sprintf("io %d only in full", v)
		}
	}
	return "ordering"
}

func firstEdgeDiff(a, b []hbg.Edge) string {
	key := func(e hbg.Edge) string { return fmt.Sprintf("%d->%d", e.From, e.To) }
	am, bm := map[string]bool{}, map[string]bool{}
	for _, e := range a {
		am[key(e)] = true
	}
	for _, e := range b {
		bm[key(e)] = true
	}
	for k := range am {
		if !bm[k] {
			return k + " only in incremental"
		}
	}
	for k := range bm {
		if !am[k] {
			return k + " only in full"
		}
	}
	return "ordering"
}

// oracleSnapshots checks the §5 snapshot machinery three ways:
// (a) replaying every captured FIB event reproduces the live FIBs exactly
// (no mixed-generation entries can survive a faithful replay);
// (b) a randomly lagged collection cut, extended by ConsistentCollect,
// reaches consistency whenever full-log inference itself is consistent;
// (c) any forwarding loop visible in the collected snapshot is a state the
// network could have been in — phantom loops are forbidden. §5 promises of a
// consistent cut a *possible* state, not an *instantaneous* one (DESIGN.md
// §5): what makes it possible is closure under ground-truth happens-before,
// so that is what is checked, with the simulator's causal tags.
// BugSkipCutExtension verifies the first cut unextended, which (c) must catch.
func (h *harness) oracleSnapshots(round int) *Failure {
	all := h.w.net.Log.All()
	stripped := capture.StripOracle(all)

	// (a) full-log replay == live FIBs.
	replayed := snapshot.BuildFIBs(stripped)
	live := h.w.net.FIBSnapshot()
	if detail := diffFIBs(replayed, live); detail != "" {
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
	collected, _, res := snapshot.ConsistentCollect(stripped, cut, h.full.Infer, h.w.isExternal)
	if !res.Consistent {
		// Tolerate inference misses the full log shows too; only an
		// inconsistency *introduced* by cut collection is a failure.
		if full := snapshot.Check(h.full.Infer(stripped), h.w.isExternal); full.Consistent {
			return &Failure{Oracle: OracleSnapshot, Round: round, Detail: fmt.Sprintf(
				"extended cut stays inconsistent (missing %d, waiting for %v) though the full log is consistent",
				len(res.Missing), res.WaitFor)}
		}
	}
	if h.cfg.Bug == BugSkipCutExtension {
		collected = snapshot.Collect(stripped, cut)
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
// stopping — as snapshot.Check does — at advertisements received from
// external peers, and describes the first ancestor the cut lacks ("" when
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
	for _, io := range h.w.net.Log.All() {
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
func (h *harness) entriesWereReal(snap map[string]map[netip.Prefix]fib.Entry, routers []string, dst netip.Addr) bool {
	covering := func(table map[netip.Prefix]fib.Entry) (fib.Entry, bool) {
		var best fib.Entry
		bits := -1
		for p, e := range table {
			if p.Contains(dst) && p.Bits() > bits {
				best, bits = e, p.Bits()
			}
		}
		return best, bits >= 0
	}
	need := map[string]fib.Entry{}
	for _, r := range routers {
		if e, ok := covering(snap[r]); ok {
			need[r] = e
		}
	}
	fibs := map[string]map[netip.Prefix]fib.Entry{}
	for _, r := range h.w.net.Routers() {
		fibs[r.Name] = map[netip.Prefix]fib.Entry{}
	}
	for _, io := range h.fibEventsTrueTime() {
		if io.Type == capture.FIBInstall {
			e := fib.Entry{Prefix: io.Prefix, NextHop: io.NextHop, Proto: io.Proto}
			if len(io.NextHops) > 1 {
				e.NextHops = append([]netip.Addr(nil), io.NextHops...)
			}
			fibs[io.Router][io.Prefix] = e
		} else {
			delete(fibs[io.Router], io.Prefix)
		}
		want, needed := need[io.Router]
		if !needed || !io.Prefix.Contains(dst) {
			continue
		}
		if got, ok := covering(fibs[io.Router]); ok && got.Equal(want) {
			delete(need, io.Router)
			if len(need) == 0 {
				return true
			}
		}
	}
	return len(need) == 0
}

// diffFIBs compares a replayed FIB set against the live tables on the
// fields a FIB event carries (prefix, next hop, protocol).
func diffFIBs(replayed map[string]map[netip.Prefix]fib.Entry, live map[string]map[netip.Prefix]fib.Entry) string {
	for router, l := range live {
		r := replayed[router]
		if len(r) != len(l) {
			return fmt.Sprintf("%s: %d replayed entries vs %d live", router, len(r), len(l))
		}
		for p, le := range l {
			re, ok := r[p]
			if !ok {
				return fmt.Sprintf("%s: %s live but not replayed", router, p)
			}
			if re.NextHop != le.NextHop || re.Proto != le.Proto || !hopSetsEqual(re.NextHops, le.NextHops) {
				return fmt.Sprintf("%s: %s replayed %v/%v vs live %v/%v",
					router, p, re, re.Proto, le, le.Proto)
			}
		}
	}
	for router, r := range replayed {
		if _, ok := live[router]; !ok && len(r) > 0 {
			return fmt.Sprintf("%s: replayed but no live table", router)
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
// violation lists for 1 worker, GOMAXPROCS workers, and a repeated run,
// and that eqclass sharding flags the same (policy, source) pairs.
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

	sharded := verify.NewChecker(walker, h.w.verifySources)
	sharded.ShardByClasses(eqclass.Compute(h.w.net.FIBSnapshot(), []netip.Prefix{PrefixP, PrefixQ}))
	shardedRep := sharded.Check(pols)
	if d := diffVerdictSets(serial, shardedRep); d != "" {
		return &Failure{Oracle: OracleChecker, Round: round,
			Detail: "eqclass sharding changes verdicts: " + d}
	}
	return nil
}

// diffVerdictSets compares which (policy, source) checks failed; sharded
// walks probe a different representative header, so walk contents may
// legitimately differ while verdicts may not.
func diffVerdictSets(a, b verify.Report) string {
	key := func(v verify.Violation) string { return v.Policy.String() + "|" + v.Source }
	am, bm := map[string]bool{}, map[string]bool{}
	for _, v := range a.Violations {
		am[key(v)] = true
	}
	for _, v := range b.Violations {
		bm[key(v)] = true
	}
	for k := range am {
		if !bm[k] {
			return k + " fails unsharded only"
		}
	}
	for k := range bm {
		if !am[k] {
			return k + " fails sharded only"
		}
	}
	return ""
}

// probeEnumLimit bounds concrete-path enumeration in the symbolic-vs-probe
// oracle; a walk whose DAG exceeds it is skipped rather than compared
// against a truncated aggregate.
const probeEnumLimit = 1024

// oracleSymbolicVsProbe is the set-vs-probe differential: for every
// (source, destination) the harness verifies, it enumerates every concrete
// single-next-hop path through the symbolic walk's ECMP DAG with the probe
// walker, aggregates those per-path outcomes independently, and requires
// the aggregate to reproduce the symbolic walk's outcome and egress set —
// and every probe to traverse only edges the symbolic DAG recorded.
// BugDropEcmpBranch makes the symbolic side silently skip the last member
// of each multi-way branch, which the edge-coverage check must catch.
func (h *harness) oracleSymbolicVsProbe(round int) *Failure {
	sym := h.liveWalker()
	sym.BugDropEcmpBranch = h.cfg.Bug == BugDropEcmpBranch
	probe := h.liveWalker()
	for _, p := range []netip.Prefix{PrefixP, PrefixQ} {
		dst := dataplane.Representative(p)
		for _, src := range h.w.verifySources {
			w := sym.Forward(src, dst)
			probes := probe.ConcretePaths(src, dst, probeEnumLimit)
			if len(probes) >= probeEnumLimit {
				continue // truncated enumeration: aggregate would be partial
			}
			walks := make([]dataplane.Walk, len(probes))
			for i := range probes {
				walks[i] = probes[i].Walk
			}
			aggOut, aggEgress := dataplane.AggregateProbes(walks)
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
					path := pw.Walk.Path
					for i := 0; i+1 < len(path); i++ {
						if !edges[[2]string{path[i], path[i+1]}] {
							return &Failure{Oracle: OracleSymbolic, Round: round, Detail: fmt.Sprintf(
								"%s->%s: probe path %v traverses %s->%s, absent from the symbolic DAG (%d edges, %d branches)",
								src, dst, path, path[i], path[i+1], len(w.Edges), w.Branches)}
						}
					}
				}
			} else if len(probes) == 1 && w.Outcome != dataplane.Looped &&
				!reflect.DeepEqual(probes[0].Walk.Path, w.Path) {
				return &Failure{Oracle: OracleSymbolic, Round: round, Detail: fmt.Sprintf(
					"%s->%s: unbranched symbolic path %v differs from concrete probe %v",
					src, dst, w.Path, probes[0].Walk.Path)}
			}
		}
	}
	return nil
}

// oracleDistVsCentral builds a distributed verification fleet over the
// live network (every router, externals included, so walks traverse the
// same graph the central walker sees), runs one checker twice — over the
// central executor and over the fleet executor — and asserts every check
// was answered by the same walk: path, outcome, egress. BugDropBatch makes
// the coordinator lose every batch bound for one node while still
// reporting success, which this oracle must catch.
func (h *harness) oracleDistVsCentral(round int) *Failure {
	coord, nodes, teardown, err := dist.BuildFleet(h.w.net, nil)
	if err != nil {
		return &Failure{Oracle: OracleDist, Round: round, Detail: fmt.Sprintf("build fleet: %v", err)}
	}
	defer teardown()

	var opts dist.VerifyOpts
	if h.cfg.Bug == BugDropBatch {
		victim := h.w.verifySources[0]
		opts.DropBatch = func(src string, _ int) bool { return src == victim }
	}
	ck := verify.NewChecker(h.liveWalker(), h.w.verifySources)
	pols := h.policies()
	want := ck.Check(pols).Results()
	ck.Executor = coord.Executor(nodes, opts)
	got := ck.Check(pols).Results()
	for i, g := range got {
		w := want[i]
		if g.Err != nil {
			return &Failure{Oracle: OracleDist, Round: round, Detail: fmt.Sprintf(
				"walk %s->%s failed: %v", g.Source, w.Walk.Dst, g.Err)}
		}
		if g.Walk.Outcome != w.Walk.Outcome || g.Walk.Egress != w.Walk.Egress ||
			!reflect.DeepEqual(g.Walk.Path, w.Walk.Path) {
			return &Failure{Oracle: OracleDist, Round: round, Detail: fmt.Sprintf(
				"walk %s->%s diverges: distributed %s via %v (egress %q), central %s via %v (egress %q)",
				g.Source, w.Walk.Dst, g.Walk.Outcome, g.Walk.Path, g.Walk.Egress,
				w.Walk.Outcome, w.Walk.Path, w.Walk.Egress)}
		}
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
// BugSkipLocalCheck silences every local checker while leaving the
// labels intact, which the in-flight phase must catch.
func (h *harness) oracleLocalSuperset(round int) *Failure {
	classes := []netip.Prefix{PrefixP, PrefixQ}
	views := map[string]dist.LocalView{}
	var routers []string
	for _, r := range h.w.net.Routers() {
		views[r.Name] = dist.LocalViewOf(r)
		routers = append(routers, r.Name)
	}
	sort.Strings(routers)
	ls := dist.DeriveLabelsFromViews(views, classes, uint64(round)+1)

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
		cut := dist.LocalView{Router: v.Router, Loopback: v.Loopback, Ifaces: v.Ifaces, FIB: map[netip.Prefix]fib.Entry{}}
		for p, e := range v.FIB {
			if p.Contains(rep) {
				continue
			}
			cut.FIB[p] = e
		}
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
		var peers []string
		seen := map[string]bool{}
		for _, i := range v.Ifaces {
			if i.PeerName != "" && i.PeerName != r && !seen[i.PeerName] {
				seen[i.PeerName] = true
				peers = append(peers, i.PeerName)
			}
		}
		ck := localck.Checker{Labels: ls.Node(r, peers), SkipBug: h.cfg.Bug == BugSkipLocalCheck}
		for _, viol := range ck.Check(r, func(c netip.Prefix) localck.ClassState { return v.ClassState(c) }) {
			flagged[viol.Prefix] = true
		}
	}

	fibs := map[string]map[netip.Prefix]fib.Entry{}
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
// that can currently reach P, lets the violation be detected and traced
// through the HBG, rolls back the root-cause config version, and asserts
// the network reconverges to the exact pre-fault data plane.
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
		if live[src][PrefixP].Proto == route.ProtoConnected {
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
	d := h.engine.Detect(pols)
	if d.Report.OK() {
		return &Failure{Oracle: OracleRepair, Round: round,
			Detail: fmt.Sprintf("injected blackhole on %s not detected", victim)}
	}
	if h.cfg.Bug != BugSkipRollback {
		if err := h.engine.Repair(d); err != nil {
			return &Failure{Oracle: OracleRepair, Round: round, Detail: fmt.Sprintf(
				"repair failed on %s: %v (fault=%s, %d roots)", victim, err, d.Fault, len(d.Roots))}
		}
		if !d.RolledBack || d.RollbackRouter != victim {
			return &Failure{Oracle: OracleRepair, Round: round,
				Detail: fmt.Sprintf("rollback targeted %q, want %q", d.RollbackRouter, victim)}
		}
	}
	if err := h.w.net.Run(); err != nil {
		return &Failure{Oracle: OracleRepair, Round: round, Detail: fmt.Sprintf("repair convergence: %v", err)}
	}

	post := h.w.net.FIBSnapshot()
	if detail := diffSnapshots(pre, post); detail != "" {
		return &Failure{Oracle: OracleRepair, Round: round,
			Detail: "data plane differs from pre-fault state after repair: " + detail}
	}
	if rep := verify.NewChecker(h.liveWalker(), h.w.verifySources).Check(pols); !rep.OK() {
		return &Failure{Oracle: OracleRepair, Round: round,
			Detail: "violation persists after repair: " + rep.Violations[0].String()}
	}
	return nil
}

// oracleEqclassDelta asserts the delta verification path is equivalent to
// the from-scratch one: the incremental classifier (fed only FIB updates
// since its seed) must produce the identical class partition to a fresh
// eqclass.Compute over the live FIBs, and the cached-walk checker must
// report the identical violation list to a cold checker with no cache.
func (h *harness) oracleEqclassDelta(round int) *Failure {
	incClasses := h.eqc.Classes()
	fullClasses := eqclass.Compute(h.w.net.FIBSnapshot(), nil)
	if d := diffClasses(incClasses, fullClasses); d != "" {
		return &Failure{Oracle: OracleEqclassDelta, Round: round,
			Detail: "incremental classes diverge from full Compute: " + d}
	}

	pols := h.policies()
	cachedRep := h.cached.Check(pols)
	coldRep := verify.NewChecker(h.liveWalker(), h.w.verifySources).Check(pols)
	if !reflect.DeepEqual(cachedRep.Violations, coldRep.Violations) {
		return &Failure{Oracle: OracleEqclassDelta, Round: round, Detail: fmt.Sprintf(
			"cached-walk checker diverges from cold checker: %d violations (%d walks cached) vs %d",
			len(cachedRep.Violations), cachedRep.Cached, len(coldRep.Violations))}
	}
	return nil
}

// oracleServeVsBatch asserts the concurrent query engine is answer-
// equivalent to batch verification: for every (policy, source) the harness
// checks, the engine's verdict must match a cold Checker's over the same
// live state, and the walk backing the verdict must be byte-identical —
// path, outcome, egress — to the cold walker's, however the plan was
// obtained (shared-cache hit, coalesced flight, pinned bug walk, or fresh
// execution). The engine persists across rounds, so plans cached in
// earlier rounds must have been invalidated by the interleaving churn;
// BugStalePlan pins each plan's first walk forever, which this oracle must
// catch as soon as a queried plan's forwarding actually changes.
func (h *harness) oracleServeVsBatch(round int) *Failure {
	pols := h.policies()
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
			if ans.Walk.Outcome != want.Outcome || ans.Walk.Egress != want.Egress ||
				!reflect.DeepEqual(ans.Walk.Path, want.Path) {
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

// diffSnapshots compares two live FIB snapshots entry-for-entry.
func diffSnapshots(a, b map[string]map[netip.Prefix]fib.Entry) string {
	for router, at := range a {
		bt := b[router]
		if len(at) != len(bt) {
			return fmt.Sprintf("%s: %d entries before vs %d after", router, len(at), len(bt))
		}
		for p, ae := range at {
			be, ok := bt[p]
			if !ok {
				return fmt.Sprintf("%s: %s missing after repair", router, p)
			}
			if !ae.Equal(be) {
				return fmt.Sprintf("%s: %s was %s, now %s", router, p, ae, be)
			}
		}
	}
	return ""
}

// hopSetsEqual compares two canonical (sorted) next-hop sets.
func hopSetsEqual(a, b []netip.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randDuration draws a uniform duration in [0, maxMillis) milliseconds.
func randDuration(rng *rand.Rand, maxMillis int64) time.Duration {
	return time.Duration(rng.Int63n(maxMillis * int64(time.Millisecond)))
}
