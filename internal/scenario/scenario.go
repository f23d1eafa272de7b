// Package scenario is the randomized correctness harness: it generates
// seeded deterministic networks, drives them through churn schedules, and
// checks twelve differential oracles after every convergence round. The
// stack under test is the production one — one hbverify.Pipeline and the
// query engine it builds — and .github/mutate.go proves each oracle can fail
// by building it with a known defect planted in the source. The oracles —
//
//  0. infer-fast-vs-reference: the shared-index rule matcher produces
//     node- and edge-identical graphs to the preserved pre-index
//     reference implementation;
//  1. incremental-vs-full: the pipeline's hbr.Incremental yields a node-
//     and edge-identical HBG to a fresh full inference over the
//     same log, and over random cuts of it, which it must derive from its
//     cache;
//  2. compaction-vs-full: a bounded capture window — events folded into
//     an incremental cache, then evicted below the retention floor, the
//     stream daemon's memory-bounding discipline — yields the identical
//     graph and root causes to a full inference pruned at the same floor;
//  3. snapshot-consistency: snapshots assembled from HBR cuts replay to
//     the live FIBs, reach §5-consistency from lagged cuts — the same cut
//     by message accounting over a send table as by an inferred graph —
//     and show no loop outside a cut closed under ground-truth
//     happens-before or through an entry its router never held;
//  4. checker-determinism: verify.Checker verdicts are identical across
//     worker counts and repeated runs;
//  5. dist-vs-central: the walks of a distributed TCP fleet that lives
//     for the whole run, its nodes kept current by view syncs, are
//     byte-identical — path, outcome, egress — to the central walker's
//     over the live FIBs;
//  6. repair-rollback: after injecting a faulty config and repairing it
//     via the pipeline's HBG root-cause rollback, the network reconverges
//     to the exact pre-fault data plane;
//  7. eqclass-delta-vs-full: the pipeline's delta path — incremental
//     equivalence classes plus Verify over its walk cache — agrees exactly
//     with a from-scratch eqclass.Compute and a cold Checker.Check;
//  8. symbolic-vs-probe: every concrete single-next-hop path enumerated
//     through a symbolic walk's ECMP DAG, independently aggregated,
//     reproduces the symbolic walk's outcome and egress set, and no
//     concrete path traverses an edge the DAG lacks;
//  9. intern-vs-copy: every attribute set a BGP speaker retains in its
//     interned Adj-RIB-In is byte-equal to one actually received on the
//     wire — the hash-consed canonical table never aliases distinct sets;
//  10. serve-vs-batch: every answer the pipeline's query engine gives —
//     verdict and walk — is identical to a fresh batch check over the
//     same live state, however the plan was obtained (cache hit,
//     coalesced flight, or fresh execution);
//  11. localcheck-superset: per-router local invariant checks over
//     distance labels flag a superset of the central walker's
//     violations — on converged views and on update-in-flight snapshots
//     checked against the pre-update label epoch — so local-check mode
//     never certifies a state the central walker would fail.
//
// A failure carries the seed and churn schedule; Shrink greedily drops
// events until the failure is minimal, and the artifact replays with
// `go run ./cmd/replay -schedule <file>`.
package scenario

import (
	"fmt"
	"hash/fnv"
	"time"

	"hbverify"
	"hbverify/internal/capture"
	"hbverify/internal/dataplane"
	"hbverify/internal/dist"
	"hbverify/internal/fib"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/serve"
)

// Config describes one deterministic scenario. The zero values of Shape,
// Mix, Routers, and Rounds are derived from Seed; a nil Schedule is
// generated from Seed, while a non-nil (even empty) Schedule is replayed
// verbatim — that distinction is what makes shrunk artifacts exact.
type Config struct {
	Seed     int64   `json:"seed"`
	Shape    string  `json:"shape,omitempty"`
	Mix      string  `json:"mix,omitempty"`
	Routers  int     `json:"routers,omitempty"`
	Rounds   int     `json:"rounds,omitempty"`
	Schedule []Event `json:"schedule,omitempty"`
}

// Normalize fills unset fields deterministically from Seed.
func Normalize(cfg Config) Config {
	rng := deriveRNG(cfg.Seed, 0)
	shape := randomShapes[rng.Intn(len(randomShapes))]
	mix := Mixes[rng.Intn(len(Mixes))]
	routers := 4 + rng.Intn(3)
	if cfg.Shape == "" {
		cfg.Shape = shape
	}
	if cfg.Mix == "" {
		cfg.Mix = mix
	}
	if cfg.Routers == 0 {
		cfg.Routers = routers
	}
	// The scale shapes are fixed topologies; Routers reports their true
	// size rather than the seed-drawn count the classic shapes use.
	switch cfg.Shape {
	case "fattree-k4":
		cfg.Routers = 20
	case "isp-rr":
		cfg.Routers = 8
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 3
	}
	return cfg
}

// Materialize normalizes cfg and, when the schedule is unset, fills it
// with the generated churn — the form Shrink and artifacts need.
func Materialize(cfg Config) (Config, error) {
	cfg = Normalize(cfg)
	if cfg.Schedule != nil {
		return cfg, nil
	}
	w, err := buildWorld(cfg)
	if err != nil {
		return cfg, err
	}
	cfg.Schedule = generateSchedule(cfg, w)
	return cfg, nil
}

// Failure is one oracle violation, tied to the round that produced it.
type Failure struct {
	Oracle string `json:"oracle"`
	Round  int    `json:"round"`
	Detail string `json:"detail"`
}

func (f Failure) Error() string {
	return fmt.Sprintf("oracle %s failed at round %d: %s", f.Oracle, f.Round, f.Detail)
}

// Result summarizes one scenario run.
type Result struct {
	Config  Config
	Failure *Failure
	// IOs is the final capture-log length; Rounds is how many rounds
	// completed before the run ended.
	IOs    int
	Rounds int
	// Digest is FNV-64a over the final capture log's binary encoding,
	// which covers every field of every I/O: two runs with equal digests
	// recorded byte-identical logs.
	Digest uint64
	// Loops lists every forwarding loop the snapshot oracle met in a
	// collected cut, whatever it made of it.
	Loops []SnapshotLoop
	// Cuts lists the lagged cut the snapshot oracle closed in each round.
	Cuts []SnapshotCut
	// Desync is how many receives the channel table found out of step with
	// their sends (hbr.channel_desync), counted once each by the dripped
	// cache of the incremental-vs-full oracle.
	Desync int64
}

// roundGap separates rounds (and the oracle-4 fault injection) in virtual
// time. It must exceed hbr.Rules' 500ms same-router window so the
// injected fault's FIB update cannot be mis-attributed to leftover churn.
const roundGap = 2 * time.Second

// Run executes the scenario and returns the first oracle failure, if any.
func Run(cfg Config) *Result {
	cfg = Normalize(cfg)
	res := &Result{Config: cfg}
	fail := func(oracle string, round int, format string, args ...interface{}) *Result {
		res.Failure = &Failure{Oracle: oracle, Round: round, Detail: fmt.Sprintf(format, args...)}
		if res.Config.Schedule == nil {
			res.Config.Schedule = []Event{}
		}
		return res
	}

	w, err := buildWorld(cfg)
	if err != nil {
		return fail("harness", -1, "build: %v", err)
	}
	if cfg.Schedule == nil {
		cfg.Schedule = generateSchedule(cfg, w)
		res.Config.Schedule = cfg.Schedule
	}
	w.net.Start()
	if err := w.net.Run(); err != nil {
		return fail("convergence", -1, "initial convergence: %v", err)
	}

	h, err := newHarness(cfg, w)
	if err != nil {
		return fail("harness", -1, "build: %v", err)
	}
	defer h.serve.Close()
	defer h.fleet.Close()
	byRound := map[int][]Event{}
	for _, ev := range cfg.Schedule {
		byRound[ev.Round] = append(byRound[ev.Round], ev)
	}
	for round := 0; round < cfg.Rounds; round++ {
		base := w.net.Sched.Now().Add(roundGap)
		for _, ev := range byRound[round] {
			ev := ev
			w.net.Sched.At(base.Add(time.Duration(ev.At)), func() { applyEvent(w, ev) })
		}
		if err := w.net.Run(); err != nil {
			return fail("convergence", round, "churn convergence: %v", err)
		}
		f := h.checkRound(round)
		res.Loops, res.Cuts = h.loops, h.cuts
		res.Desync = h.dripMetrics.Counter("hbr.channel_desync").Value()
		if f != nil {
			res.Failure = f
			break
		}
		res.Rounds = round + 1
	}
	res.IOs, res.Digest = w.net.Log.Len(), logDigest(w.net.Log.View())
	return res
}

// logDigest hashes v's I/Os in their capture.AppendIO encoding.
func logDigest(v capture.View) uint64 {
	h := fnv.New64a()
	var buf []byte
	for i := 0; i < v.Len(); i++ {
		buf = capture.AppendIO(buf[:0], v.At(i))
		h.Write(buf)
	}
	return h.Sum64()
}

// harness holds the pipeline under test — hbverify.Pipeline as production
// wires it, and its query engine — plus what the oracles compare it against.
// The fleet lives for the whole run and is told every FIB update and link
// flip, as the pipeline's is, so view syncs keep its nodes up to date. It
// reads live, the network's forwarding state, as the oracles' live walks do.
type harness struct {
	cfg   Config
	w     *world
	p     *hbverify.Pipeline
	serve *serve.Engine
	fleet *dist.Fleet
	live  *dataplane.Live
	full  hbr.Rules
	// The windowed-compaction mirror for the compaction-vs-full oracle: clog
	// is a second capture log, fed the live log's new events stripped (both
	// number from 1, so the IDs agree) and bounded by cinc.Compact, the
	// stream daemon's own compaction.
	cRules hbr.Rules
	cinc   *hbr.Incremental
	clog   *capture.Log
	// loops and cuts are what the snapshot oracle has met so far
	// (Result.Loops, Result.Cuts).
	loops []SnapshotLoop
	cuts  []SnapshotCut
	// drip is fed the log in 1–64-event steps (dripped counts them), where
	// the pipeline sees it a converged round at a time. Nothing invalidates
	// it, so it extends across every round's repair rollback, and its
	// metrics count each desync once.
	drip        *hbr.Incremental
	dripMetrics *metrics.Registry
	dripped     int
}

func newHarness(cfg Config, w *world) (*harness, error) {
	live := w.net.Live()
	fleet, err := dist.NewFleet(live, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range w.net.Routers() {
		name := r.Name
		r.FIB.OnChange(func(u fib.Update) { fleet.Note(name, u) })
	}
	w.net.OnLinkChange(func(a, b string, _ bool) {
		fleet.NoteLinks(a)
		fleet.NoteLinks(b)
	})
	h := &harness{cfg: cfg, w: w, p: hbverify.NewPipeline(w.net, w.verifySources), fleet: fleet, live: live}
	h.p.External = w.isExternal
	h.dripMetrics = metrics.NewRegistry()
	h.drip = hbr.NewIncremental(hbr.Rules{}, h.dripMetrics)
	// The compaction mirror needs rule windows small enough that churn
	// rounds (roundGap apart) actually age past the retention floor, and a
	// skew slack covering the worlds' ±20ms clock offsets twice over.
	h.cRules = hbr.Rules{Window: 200 * time.Millisecond, ConfigWindow: 500 * time.Millisecond}
	h.cinc = hbr.NewIncremental(h.cRules, nil)
	h.cinc.SkewSlack = compactSlack
	h.clog = capture.NewLog()
	h.serve = h.p.ServeEngine(h.policies())
	return h, nil
}

// checkRound runs the twelve oracles in order and returns the first
// failure. The intern-vs-copy oracle runs first: aliased attributes would
// corrupt every downstream observable, so a canonical-table fault should be
// reported as such. The fast-vs-reference oracle runs next so any
// divergence in the inference rewrite is reported as such, not as a
// downstream repair/snapshot anomaly; the eqclass-delta oracle runs after
// repair-rollback, so it also validates that the delta state follows a
// fault injection and its rollback through the FIB updates alone — nothing
// resets it. serve-vs-batch
// runs last: it consumes the same shared cache and classifier, so an
// upstream delta fault should be reported by the delta oracle, not as a
// query-engine anomaly.
func (h *harness) checkRound(round int) *Failure {
	if f := h.oracleInternVsCopy(round); f != nil {
		return f
	}
	if f := h.oracleInferFastVsReference(round); f != nil {
		return f
	}
	if f := h.oracleIncrementalVsFull(round); f != nil {
		return f
	}
	if f := h.oracleCompactionVsFull(round); f != nil {
		return f
	}
	if f := h.oracleSnapshots(round); f != nil {
		return f
	}
	if f := h.oracleCheckerDeterminism(round); f != nil {
		return f
	}
	if f := h.oracleSymbolicVsProbe(round); f != nil {
		return f
	}
	if f := h.oracleDistVsCentral(round); f != nil {
		return f
	}
	if f := h.oracleLocalSuperset(round); f != nil {
		return f
	}
	if f := h.oracleRepairRollback(round); f != nil {
		return f
	}
	if f := h.oracleEqclassDelta(round); f != nil {
		return f
	}
	return h.oracleServeVsBatch(round)
}

// advance moves virtual time forward by d even when the event queue is
// empty (RunUntil alone never advances the clock past the last event).
func advance(n *network.Network, d time.Duration) error {
	n.Sched.At(n.Sched.Now().Add(d), func() {})
	return n.Run()
}
