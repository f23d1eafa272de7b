// Package hbverify integrates data-plane verification and control-plane
// repair into a (simulated) distributed control plane, reproducing
// "Integrating Verification and Repair into the Control Plane"
// (Gember-Jacobson, Raiciu, Vanbever — HotNets 2017).
//
// The library is organized as a pipeline over captured control-plane I/Os:
//
//	network.Network  — deterministic simulation of routers running real
//	                   BGP/OSPF/RIP/EIGRP implementations; every control
//	                   plane input and output is recorded.
//	hbr              — happens-before relationship inference from
//	                   observable I/O properties (§4.2).
//	hbg              — the happens-before graph: provenance and root
//	                   causes (§4.3, §6).
//	snapshot         — consistent data-plane snapshots whose cut is
//	                   closed by message accounting: every collected
//	                   receive's send is collected (§5).
//	verify           — the data-plane verifier (loops, blackholes,
//	                   egress, waypoints).
//	repair           — root-cause diagnosis and rollback (§6), and the
//	                   update-blocking gate of the §2 hazard.
//	dist             — distributed verification over TCP (§5).
//	ciscolog         — IOS-style log emit/parse, the §7 substrate.
//
// Pipeline ties these together for the common workflow: run a scenario,
// infer the HBG, verify policies over a consistent snapshot, and repair
// the root cause of any violation.
package hbverify

import (
	"fmt"
	"slices"
	"sync"

	"hbverify/internal/capture"
	"hbverify/internal/dataplane"
	"hbverify/internal/dist"
	"hbverify/internal/eqclass"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/netsim"
	"hbverify/internal/network"
	"hbverify/internal/repair"
	"hbverify/internal/serve"
	"hbverify/internal/snapshot"
	"hbverify/internal/trie"
	"hbverify/internal/verify"
	"hbverify/internal/whatif"
)

// Pipeline bundles the verification-and-repair loop over one network.
type Pipeline struct {
	Net *network.Network
	// Strategy infers happens-before relationships: rule matching
	// (hbr.Rules) wrapped in hbr.Incremental, which caches the inferred graph
	// across the append-only capture log and owns all inferred state.
	Strategy *hbr.Incremental
	// Sources is the packet-injection set for data-plane checks.
	Sources []string
	// External marks routers outside the administrative domain for the
	// snapshot-consistency recursion (§5).
	External func(string) bool
	// Workers bounds the parallel verification walk pool (0 = GOMAXPROCS).
	Workers int
	// Metrics collects pipeline instrumentation (inference cache behaviour,
	// walk counts, latencies).
	Metrics *metrics.Registry

	// eqc incrementally tracks forwarding equivalence classes off the live
	// FIBs; walkCache keeps data-plane walks over the live FIBs across
	// calls — central and fleet alike — with FIB deltas and link flips
	// invalidating only the affected routers.
	eqc       *eqclass.Incremental
	walkCache *verify.WalkCache
	live      *dataplane.Walker

	// fleet is the distributed verification fleet (§5), built on first use;
	// the FIB and link hooks tell it what changed under fleetMu.
	fleetMu sync.Mutex
	fleet   *dist.Fleet

	// frontier is what VerifySnapshot keeps of the log across verdicts.
	frontier snapshotFrontier
}

// NewPipeline builds a pipeline with the incremental rule-matching strategy
// and the delta verification path: every router FIB feeds the incremental
// equivalence classifier, the walk cache's per-router invalidation and the
// fleet's notes, and link flips reach both endpoint routers. A repair
// rollback is one more configuration change: its reconvergence reaches all
// three through the same feeds as any other FIB update.
func NewPipeline(n *network.Network, sources []string) *Pipeline {
	reg := metrics.NewRegistry()
	p := &Pipeline{Net: n, Strategy: hbr.NewIncremental(hbr.Rules{}, reg), Sources: sources, Metrics: reg, live: n.LiveWalker()}
	p.eqc = eqclass.NewIncremental(reg)
	p.walkCache = verify.NewWalkCache()
	for _, r := range n.Routers() {
		name := r.Name
		p.eqc.Watch(name, r.FIB)
		r.FIB.OnChange(func(u fib.Update) {
			p.walkCache.InvalidateRouter(name)
			p.toFleet(func(f *dist.Fleet) { f.Note(name, u) })
		})
	}
	n.OnLinkChange(func(a, b string, up bool) {
		// A link flip changes walker behaviour at both ends even when no
		// FIB entry moves (interface-up checks, statics over the link).
		p.walkCache.InvalidateRouter(a)
		p.walkCache.InvalidateRouter(b)
		p.toFleet(func(f *dist.Fleet) {
			f.NoteLinks(a)
			f.NoteLinks(b)
		})
	})
	return p
}

// toFleet tells the fleet, once built, what changed. A fleet starts from
// the live views, so nothing before it needs telling.
func (p *Pipeline) toFleet(tell func(*dist.Fleet)) {
	p.fleetMu.Lock()
	if p.fleet != nil {
		tell(p.fleet)
	}
	p.fleetMu.Unlock()
}

// Graph infers the happens-before graph over everything captured so far,
// reading the log's view in place: no rule reads the oracle fields and no
// vertex keeps them.
func (p *Pipeline) Graph() *hbg.Graph { return p.Strategy.InferView(p.Net.Log.View()) }

// Accuracy scores the configured strategy against ground truth, read from a
// copy of the log: an evaluation, not a step of the loop.
func (p *Pipeline) Accuracy() hbr.Metrics {
	return hbr.Evaluate(p.Graph(), p.Net.Log.Snapshot())
}

// Walker returns the pipeline's long-lived walker over the live FIBs, the
// one Verify and the serve engine walk on, so all of them share its cache
// of per-router interface state.
func (p *Pipeline) Walker() *dataplane.Walker { return p.live }

// checker builds the pipeline's checker — its sources, worker bound and
// metrics registry — over the given walker. Every verification mode runs
// this one checker; the modes differ in what walks it may reuse (the walk
// cache, live state only), how the rest execute (the central pool over w,
// or the fleet executor) and whether a local certificate may answer a
// check without a walk:
//
//	VerifySnapshot     snapshot walker, no cache, central pool
//	Verify, Detect     live walker, walk cache, central pool
//	VerifyDistributed  walk cache, fleet executor
//	VerifyLocalChecks  walk cache, fleet executor, certificate (except on
//	                   relabel rounds, which walk everything)
func (p *Pipeline) checker(w *dataplane.Walker) *verify.Checker {
	c := verify.NewChecker(w, p.Sources)
	c.Workers = p.Workers
	c.Metrics = p.Metrics
	return c
}

// Verify checks policies against the live data plane through a persistent
// walk cache: repeat calls re-walk only the (source, header) pairs whose
// path crossed a router with FIB or link changes since the last call
// (Report.Cached counts the rest).
func (p *Pipeline) Verify(policies []verify.Policy) verify.Report {
	c := p.checker(p.live)
	c.Cache = p.walkCache
	return c.Check(policies)
}

// fleetChecker returns the fleet, building it on first use, and the
// pipeline's checker over the shared walk cache for a fleet round.
func (p *Pipeline) fleetChecker() (*dist.Fleet, *verify.Checker, error) {
	p.fleetMu.Lock()
	defer p.fleetMu.Unlock()
	if p.fleet == nil {
		f, err := dist.NewFleet(p.Net, p.Metrics)
		if err != nil {
			return nil, nil, err
		}
		p.fleet = f
	}
	c := p.checker(nil)
	c.Cache = p.walkCache
	return p.fleet, c, nil
}

// VerifyDistributed checks policies through a per-router TCP fleet (§5)
// instead of the central walker. The fleet is built on first call and kept;
// each round ships binary FIB/interface deltas for the routers changed
// since the last (the same FIB and link hooks that drive the caches mark
// them), and the checker answers walks from the shared walk cache before
// anything touches the wire. Metrics land in p.Metrics (dist.* counters,
// per-node latency timers) and surface through Summary().
func (p *Pipeline) VerifyDistributed(policies []verify.Policy) (dist.Stats, error) {
	f, c, err := p.fleetChecker()
	if err != nil {
		return dist.Stats{}, err
	}
	return f.Verify(c, policies)
}

// VerifyLocalChecks runs the hybrid local-check loop over the same fleet:
// each round's nodes validate their own FIB changes against their label
// slices, so a quiet (policy, source) pair is answered without a walk frame,
// and only violations or label staleness leave checks to the walk cache and
// the fleet. The first round, and every 16th, walks everything and
// re-derives the labels (dist.Fleet.VerifyLocal).
func (p *Pipeline) VerifyLocalChecks(policies []verify.Policy) (dist.Stats, error) {
	f, c, err := p.fleetChecker()
	if err != nil {
		return dist.Stats{}, err
	}
	return f.VerifyLocal(c, policies)
}

// Close tears down resources the pipeline holds — currently the
// distributed verification fleet, if one was built. The pipeline remains
// usable for local verification afterwards; a later VerifyDistributed
// builds a fresh fleet.
func (p *Pipeline) Close() error {
	p.fleetMu.Lock()
	f := p.fleet
	p.fleet = nil
	p.fleetMu.Unlock()
	if f == nil {
		return nil
	}
	return f.Close()
}

// Classes returns the current forwarding equivalence classes, maintained
// incrementally from FIB deltas.
func (p *Pipeline) Classes() []eqclass.Class { return p.eqc.Classes() }

// ServeEngine builds a verification query engine over the pipeline's live
// state: plans execute on the central walker, the plan cache is the
// pipeline's own walk cache (so FIB churn and link flips invalidate
// exactly the affected plans, and batch Verify calls share the walks), and
// query prefixes canonicalize through the incremental equivalence
// classifier. policies is the standing set what-if queries are judged
// against. serve.* metrics land in p.Metrics and surface via Summary().
// The caller owns the engine's lifecycle (Close it when done).
func (p *Pipeline) ServeEngine(policies []verify.Policy) *serve.Engine {
	return serve.New(serve.Config{
		Executor: serve.WalkerExecutor{W: p.live},
		Cache:    p.walkCache,
		Classes:  p.eqc,
		WhatIf:   &whatif.Engine{Sources: p.Sources, Policies: policies},
		Network:  p.Net,
		Metrics:  p.Metrics,
	})
}

// VerifySnapshot checks policies against a log-derived snapshot under a
// collection cut, first extending the cut until it is consistent (§5). It
// returns the report plus the consistency result, and adds the result's
// waits to the snapshot.waits counter.
//
// The cut is a per-router horizon over a view of the log, and nothing is
// copied out of it or inferred: the cut is closed by message accounting,
// each receive against the send its place on its channel pairs it with
// (snapshot.ConsistentCut over hbr.Pairing), which reaches the cut the
// inferred graph would, and the FIBs are replayed from the view under the
// final cut. Both are kept across verdicts (snapshotFrontier), so a verdict
// reads the log's history only where a cut hides part of it. A compacted log
// evicted FIB events no replay read: the verdict is inconsistent, names the
// first retained ID in Result.EvictedBelow and verifies nothing.
func (p *Pipeline) VerifySnapshot(cut snapshot.Cut, policies []verify.Policy) (verify.Report, snapshot.Result) {
	log := p.Net.Log.View()
	first := p.Net.Log.FirstID()
	if log.Len() > 0 {
		first = log.At(0).ID
	}
	fibs, res := p.frontier.verdict(log, first, cut, p.External)
	p.Metrics.Counter("snapshot.waits").Add(int64(res.Waits))
	if res.EvictedBelow != 0 {
		return verify.Report{}, res
	}
	w := dataplane.NewWalker(p.Net.Topo, dataplane.SnapshotView(fibs))
	return p.checker(w).Check(policies), res
}

// snapshotFrontier is what VerifySnapshot keeps of the log across verdicts,
// so that one reads only what arrived since the last:
//
//   - the channel pairing (hbr.Pairing), extended over the log's new
//     suffix only;
//   - each router's FIB, replayed through the first log position the last
//     verdict's final cut hid. A verdict clones it and replays forward
//     under its own final cut;
//   - the receives below that position whose send is not below it too. A
//     cut that hides nothing the replay holds collects every event there,
//     and so does every cut the closure extends it to, so the closure reads
//     below it only those receives (snapshot.ConsistentCutFrom).
//
// When the view no longer extends what the frontier saw — the log was
// compacted, the view is shorter than the replay, or the cut hides an event
// the replay holds — the frontier starts again from the view's first event
// through the same loop. A log's IDs start at 1 (capture.NewLog), so a view
// that starts later holds no complete history to start from.
type snapshotFrontier struct {
	mu    sync.Mutex
	first uint64 // ID of the event at position 0 of the views seen; 0 when none
	pairs hbr.Pairing
	// fibs is the replay of every event at a position below next; seen is,
	// per router, the latest observed time among them, and open lists,
	// ascending, the receives among them whose send is not among them.
	fibs map[string]*trie.Trie[fib.Entry]
	next int
	seen map[string]netsim.VirtualTime
	open []int32
}

// verdict closes cut over v, whose first event has ID first (the log's
// FirstID when v is empty), and returns the FIBs under the final cut with
// the closure's result, or EvictedBelow set and no FIBs when v starts past
// the log's first ID. It holds the frontier's lock throughout, external's
// calls included: the closure reads the pairing a concurrent verdict may be
// extending.
func (f *snapshotFrontier) verdict(v capture.View, first uint64, cut snapshot.Cut, external func(string) bool) (map[string]*trie.Trie[fib.Entry], snapshot.Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if first != f.first {
		f.first, f.pairs, f.fibs = first, hbr.Pairing{}, nil
	}
	if first > 1 {
		return nil, snapshot.Result{EvictedBelow: first}
	}
	sendOf := f.pairs.Extend(v)
	// The closure only lifts the cut's horizons, so a final cut hides an
	// event the replay holds only if the first one does; testing the first
	// lets the closure skip what the replay holds.
	if f.fibs == nil || f.next > v.Len() || f.behind(cut) {
		f.fibs, f.next, f.seen, f.open = map[string]*trie.Trie[fib.Entry]{}, 0, map[string]netsim.VirtualTime{}, nil
	}
	final, res := snapshot.ConsistentCutFrom(v, f.next, f.open, cut, sendOf, external)
	hid := f.next
	for ; hid < v.Len() && final.Visible(v.At(hid)); hid++ {
		io := v.At(hid)
		f.seen[io.Router] = max(f.seen[io.Router], io.Time)
	}
	settled := func(i int32) bool { return sendOf[i] >= 0 && int(sendOf[i]) < hid }
	f.open = slices.DeleteFunc(f.open, settled)
	for i := int32(f.next); int(i) < hid; i++ {
		if t := v.At(int(i)).Type; (t == capture.RecvAdvert || t == capture.RecvWithdraw) && !settled(i) {
			f.open = append(f.open, i)
		}
	}
	snapshot.Replay(f.fibs, v.Slice(f.next, hid), nil)
	f.next = hid
	fibs := make(map[string]*trie.Trie[fib.Entry], len(f.fibs))
	for r, t := range f.fibs {
		fibs[r] = t.Clone()
	}
	snapshot.Replay(fibs, v.Slice(hid, v.Len()), final)
	return fibs, res
}

// behind reports whether cut hides an event the replay holds.
func (f *snapshotFrontier) behind(cut snapshot.Cut) bool {
	for r, horizon := range cut {
		if t, ok := f.seen[r]; ok && t > horizon {
			return true
		}
	}
	return false
}

// Detect verifies (as Verify does) and, on violation, traces the
// problematic FIB update to its root causes via the inferred HBG, which is
// inferred only when such an update is found.
func (p *Pipeline) Detect(policies []verify.Policy) *repair.Diagnosis {
	return repair.Diagnose(p.Verify(policies), p.Net.Log.View(), p.Graph)
}

// DetectAndRepair additionally rolls back the root-cause configuration
// change. Run the network afterwards to let the repair converge. A
// successful rollback drops the cached graph, for memory rather than
// correctness: the rollback is one more ConfigChange in the log and its
// reconvergence one more batch of FIB updates, which reach every cache like
// any other, so dropping the graph only frees it while the network
// reconverges.
func (p *Pipeline) DetectAndRepair(policies []verify.Policy) (*repair.Diagnosis, error) {
	d := p.Detect(policies)
	if d.Report.OK() {
		return d, nil
	}
	if err := repair.Rollback(p.Net, d); err != nil {
		return d, err
	}
	p.Strategy.Invalidate()
	return d, nil
}

// Summary renders a one-line pipeline state description, followed by the
// collected metrics when any instrument has fired.
func (p *Pipeline) Summary() string {
	s := fmt.Sprintf("%d routers, %d captured I/Os, strategy=%s",
		len(p.Net.Routers()), p.Net.Log.Len(), p.Strategy.Name())
	if m := p.Metrics.String(); m != "" {
		s += "\nmetrics: " + m
	}
	return s
}
