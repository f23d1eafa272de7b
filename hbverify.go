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
	"net/netip"
	"sort"
	"sync"

	"hbverify/internal/dataplane"
	"hbverify/internal/dist"
	"hbverify/internal/eqclass"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/repair"
	"hbverify/internal/serve"
	"hbverify/internal/snapshot"
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

	// Lazily-built distributed verification fleet (§5), plus the set of
	// routers whose forwarding state changed since the last distributed
	// round — the view-delta and walk-reuse working set.
	distMu       sync.Mutex
	distCoord    *dist.Coordinator
	distNodes    map[string]*dist.Node
	distTeardown func()
	distDirty    map[string]struct{}
	// localRounds counts local-check rounds since the last full walk
	// round; VerifyLocalChecks relabels when it reaches localRelabelEvery.
	localRounds int
}

// NewPipeline builds a pipeline with the incremental rule-matching strategy
// and the delta verification path: every router FIB feeds the incremental
// equivalence classifier, the walk cache's per-router invalidation and the
// fleet's dirty set, and link flips reach both endpoint routers. A repair
// rollback is one more configuration change: its reconvergence reaches all
// three through the same feeds as any other FIB update.
func NewPipeline(n *network.Network, sources []string) *Pipeline {
	reg := metrics.NewRegistry()
	p := &Pipeline{Net: n, Strategy: hbr.NewIncremental(hbr.Rules{}, reg), Sources: sources, Metrics: reg, live: n.LiveWalker()}
	p.eqc = eqclass.NewIncremental(reg)
	p.walkCache = verify.NewWalkCache()
	p.distDirty = map[string]struct{}{}
	for _, r := range n.Routers() {
		name := r.Name
		p.eqc.Watch(name, r.FIB)
		r.FIB.OnChange(func(fib.Update) {
			p.walkCache.InvalidateRouter(name)
			p.noteDistDirty(name)
		})
	}
	n.OnLinkChange(func(a, b string, up bool) {
		// A link flip changes walker behaviour at both ends even when no
		// FIB entry moves (interface-up checks, statics over the link).
		p.walkCache.InvalidateRouter(a)
		p.walkCache.InvalidateRouter(b)
		p.noteDistDirty(a)
		p.noteDistDirty(b)
	})
	return p
}

func (p *Pipeline) noteDistDirty(router string) {
	p.distMu.Lock()
	p.distDirty[router] = struct{}{}
	p.distMu.Unlock()
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

// fleetRound is what one distributed round starts from: the lazily-built
// fleet, the routers dirtied since the previous round (sorted), fresh views
// of exactly those routers, and the local-check round counter.
type fleetRound struct {
	coord  *dist.Coordinator
	nodes  map[string]*dist.Node
	dirty  []string
	views  map[string]dist.LocalView
	rounds int
}

// beginFleetRound builds the fleet on first use and takes the dirty set,
// leaving an empty one behind: a router dirtied while the round runs lands
// in the new set and is synced by the next round, instead of being wiped
// by a reset at the end of this one. endFleetRound puts the taken set back
// if the round fails.
func (p *Pipeline) beginFleetRound() (fleetRound, error) {
	p.distMu.Lock()
	if p.distCoord == nil {
		coord, nodes, teardown, err := dist.BuildFleet(p.Net, nil)
		if err != nil {
			p.distMu.Unlock()
			return fleetRound{}, err
		}
		p.distCoord, p.distNodes, p.distTeardown = coord, nodes, teardown
		// The fleet was just built from the live views: nothing is dirty.
		p.distDirty = map[string]struct{}{}
	}
	r := fleetRound{coord: p.distCoord, nodes: p.distNodes, rounds: p.localRounds, views: map[string]dist.LocalView{}}
	taken := p.distDirty
	p.distDirty = map[string]struct{}{}
	p.distMu.Unlock()

	r.dirty = make([]string, 0, len(taken))
	for name := range taken {
		r.dirty = append(r.dirty, name)
	}
	sort.Strings(r.dirty)
	for _, rt := range p.Net.Routers() {
		if _, dirty := taken[rt.Name]; dirty && r.nodes[rt.Name] != nil {
			r.views[rt.Name] = dist.LocalViewOf(rt)
		}
	}
	return r, nil
}

// endFleetRound merges a failed round's dirty set back so its routers are
// retried; a successful round has nothing to return.
func (p *Pipeline) endFleetRound(r fleetRound, err error) {
	if err == nil {
		return
	}
	p.distMu.Lock()
	for _, name := range r.dirty {
		p.distDirty[name] = struct{}{}
	}
	p.distMu.Unlock()
}

// fleetCheck syncs the round's dirty views — every shipped delta is
// acknowledged before any walk is dispatched — and runs the pipeline's
// checker over the fleet executor, sharing the live walk cache with the
// central path. With local set, the checker also gets the coordinator's
// certificate as it stands after the sync's local-check reports.
func (p *Pipeline) fleetCheck(r fleetRound, policies []verify.Policy, local bool) (dist.Stats, error) {
	if _, err := r.coord.SyncViews(r.nodes, r.views, r.dirty, 0); err != nil {
		return dist.Stats{}, err
	}
	c := p.checker(nil)
	c.Cache = p.walkCache
	if local {
		c.Certified = r.coord.Certificate()
	}
	return r.coord.Round(c, r.nodes, policies, dist.VerifyOpts{Metrics: p.Metrics})
}

// VerifyDistributed checks policies through a per-router TCP fleet (§5)
// instead of the central walker. The fleet is built lazily on first call
// and kept across calls; subsequent rounds ship binary FIB/interface
// deltas only for the routers that changed (tracked from the same
// OnChange/OnLinkChange hooks that drive the caches), and the checker
// answers walks from the shared walk cache before anything touches the
// wire. Metrics land in p.Metrics (dist.* counters, per-node latency
// timers) and surface through Summary().
func (p *Pipeline) VerifyDistributed(policies []verify.Policy) (stats dist.Stats, err error) {
	r, err := p.beginFleetRound()
	if err != nil {
		return dist.Stats{}, err
	}
	defer func() { p.endFleetRound(r, err) }()
	return p.fleetCheck(r, policies, false)
}

// localRelabelEvery bounds how many local-check rounds may run between
// full walk rounds: VerifyLocalChecks re-walks everything and re-derives
// the distance labels once the counter hits it (the periodic full round
// of the hybrid loop).
const localRelabelEvery = 16

// VerifyLocalChecks runs the hybrid local-check loop over the same lazy
// fleet VerifyDistributed maintains. Every round ships view deltas and
// lets each node validate its own FIB changes against its label slice;
// most rounds then hand the checker the resulting certificate, so every
// quiet (policy, source) pair is answered without a single walk frame and
// only violations or label staleness leave checks to the walk cache and
// the fleet. Every localRelabelEvery-th round (and the first) runs without
// the certificate and re-derives the distance labels from the state it
// just walked, so label drift is bounded. Frames and Bytes in the returned
// stats cover the whole call: view sync, local reports, label pushes, and
// any walks.
func (p *Pipeline) VerifyLocalChecks(policies []verify.Policy) (stats dist.Stats, err error) {
	r, err := p.beginFleetRound()
	if err != nil {
		return dist.Stats{}, err
	}
	defer func() { p.endFleetRound(r, err) }()
	coord, nodes := r.coord, r.nodes

	relabel := coord.LabelEpoch() == 0 || r.rounds >= localRelabelEvery
	f0, b0 := coord.FleetWire(nodes)
	if stats, err = p.fleetCheck(r, policies, !relabel); err != nil {
		return stats, err
	}
	if relabel {
		classes := make([]netip.Prefix, 0, len(policies))
		seen := map[netip.Prefix]bool{}
		for _, pol := range policies {
			if !seen[pol.Prefix] {
				seen[pol.Prefix] = true
				classes = append(classes, pol.Prefix)
			}
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i].String() < classes[j].String() })
		if _, err = coord.Relabel(nodes, classes); err != nil {
			return stats, err
		}
		stats.Relabeled = true
	}
	f1, b1 := coord.FleetWire(nodes)
	stats.Frames, stats.Bytes = int(f1-f0), int(b1-b0)

	p.distMu.Lock()
	if relabel {
		p.localRounds = 1
	} else {
		p.localRounds++
	}
	p.distMu.Unlock()
	return stats, nil
}

// Close tears down resources the pipeline holds — currently the
// distributed verification fleet, if one was built. The pipeline remains
// usable for local verification afterwards; a later VerifyDistributed
// builds a fresh fleet.
func (p *Pipeline) Close() error {
	p.distMu.Lock()
	teardown := p.distTeardown
	p.distCoord, p.distNodes, p.distTeardown = nil, nil, nil
	p.distMu.Unlock()
	if teardown != nil {
		teardown()
	}
	return nil
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
		Executor:  serve.WalkerExecutor{W: p.live},
		Cache:     p.walkCache,
		Classes:   p.eqc,
		WhatIf:    &whatif.Engine{Seed: 1, Sources: p.Sources, Policies: policies},
		Blueprint: p.Net.Blueprint(),
		Metrics:   p.Metrics,
	})
}

// VerifySnapshot checks policies against a log-derived snapshot under a
// collection cut, first extending the cut until it is consistent (§5). It
// returns the report plus the consistency result, and adds the result's
// waits to the snapshot.waits counter.
//
// The cut is a per-router horizon over a view of the log, and nothing is
// copied out of it or inferred: the cut is closed by message accounting
// over the log's send table (snapshot.ConsistentCut, hbr.Sends), which
// reaches the cut the inferred graph would, and the FIBs are replayed from
// the view under the final cut.
func (p *Pipeline) VerifySnapshot(cut snapshot.Cut, policies []verify.Policy) (verify.Report, snapshot.Result) {
	log := p.Net.Log.View()
	final, res := snapshot.ConsistentCut(log, cut, p.Strategy.Rules.Sends(log), p.External)
	p.Metrics.Counter("snapshot.waits").Add(int64(res.Waits))
	w := dataplane.NewWalker(p.Net.Topo, dataplane.SnapshotView(snapshot.ReplayFIBs(log, final)))
	return p.checker(w).Check(policies), res
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
