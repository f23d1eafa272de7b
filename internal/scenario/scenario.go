// Package scenario is the randomized correctness harness: it generates
// seeded deterministic networks, drives them through churn schedules, and
// checks twelve differential oracles after every convergence round —
//
//  0. infer-fast-vs-reference: every shared-index inference strategy
//     produces node-, edge-, and confidence-identical graphs to the
//     preserved pre-index reference implementations;
//  1. incremental-vs-full: hbr.Incremental yields a node-, edge- and
//     confidence-identical HBG to a fresh full inference over the same log,
//     and over random cuts of it, which it must derive from its cache;
//  2. compaction-vs-full: a bounded capture window — events folded into
//     an incremental cache, then evicted below the retention floor, the
//     stream daemon's memory-bounding discipline — yields the identical
//     graph and root causes to a full inference pruned at the same floor;
//  3. snapshot-consistency: snapshots assembled from HBR cuts replay to
//     the live FIBs, reach §5-consistency from lagged cuts, and show no
//     loop outside a cut closed under ground-truth happens-before or
//     through an entry its router never held;
//  4. checker-determinism: verify.Checker verdicts are identical across
//     worker counts, repeated runs, and eqclass sharding;
//  5. dist-vs-central: the distributed TCP fleet's walks are
//     byte-identical — path, outcome, egress — to the central walker's
//     over the same FIBs;
//  6. repair-rollback: after injecting a faulty config and repairing it
//     via HBG root-cause rollback, the network reconverges to the exact
//     pre-fault data plane;
//  7. eqclass-delta-vs-full: the delta path — incremental equivalence
//     classes plus the cached-walk checker — agrees exactly with a
//     from-scratch eqclass.Compute and a cold Checker.Check;
//  8. symbolic-vs-probe: every concrete single-next-hop path enumerated
//     through a symbolic walk's ECMP DAG, independently aggregated,
//     reproduces the symbolic walk's outcome and egress set, and no
//     concrete path traverses an edge the DAG lacks;
//  9. intern-vs-copy: every attribute set a BGP speaker retains in its
//     interned Adj-RIB-In is byte-equal to one actually received on the
//     wire — the hash-consed canonical table never aliases distinct sets;
//  10. serve-vs-batch: every answer the concurrent query engine gives —
//     verdict and walk — is identical to a fresh batch check over the
//     same live state, however the plan was obtained (cache hit, pinned
//     plan, coalesced flight, or fresh execution);
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
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/eqclass"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/repair"
	"hbverify/internal/route"
	"hbverify/internal/serve"
	"hbverify/internal/verify"
)

// Known injectable bugs, used to prove the oracles can fail.
const (
	// BugStaleCache freezes the inference cache at its first result, as if
	// the incremental layer never noticed the log growing.
	BugStaleCache = "stale-cache"
	// BugSkipRollback detects the violation but silently skips applying
	// the repair rollback, as a repair engine that reports success without
	// acting would.
	BugSkipRollback = "skip-rollback"
	// BugStaleEqclass freezes the delta verification path: the incremental
	// equivalence classifier is seeded once but never hears FIB updates,
	// and the walk cache is never invalidated — the failure mode of a
	// delta pipeline whose change feed silently disconnects.
	BugStaleEqclass = "stale-eqclass"
	// BugDropBatch makes the distributed coordinator silently lose every
	// walk batch destined for one node while still reporting the round as
	// complete — the failure mode of a transport that acks frames it never
	// delivered.
	BugDropBatch = "drop-batch"
	// BugSwapSendMatch inverts the tie-breaking comparison in the shared
	// index's send/recv matcher, so among equally plausible candidate sends
	// the furthest (not nearest) in time wins — the kind of off-by-one a
	// binary-searched rewrite of a linear scan invites.
	BugSwapSendMatch = "swap-send-match"
	// BugSkipFold makes the windowed-compaction mirror evict capture
	// events without first folding their inferred edges into the cached
	// graph — the failure mode of a compactor that trims the log before
	// the inference tick that would have covered it.
	BugSkipFold = "skip-fold"
	// BugDropEcmpBranch makes symbolic exploration silently ignore the
	// last member of every multi-way ECMP branch — the failure mode of a
	// set-walker whose branch iteration is off by one. Concrete probe
	// walks are unaffected, so the symbolic-vs-probe oracle must catch
	// the missing branch.
	BugDropEcmpBranch = "drop-ecmp-branch"
	// BugInternAlias makes the BGP attribute interner treat the first AS in
	// the path as a wildcard when hashing and comparing, so distinct
	// attribute sets collapse onto one canonical entry — the failure mode
	// of a hash-consing table whose equality check drifts from its hash.
	BugInternAlias = "intern-alias"
	// BugStalePlan makes the query engine pin each plan's first walk
	// forever, ignoring cache invalidation — the failure mode of a plan
	// cache whose churn feed disconnects while the batch path stays
	// healthy. The serve-vs-batch oracle must catch the divergence.
	BugStalePlan = "stale-plan"
	// BugSkipLocalCheck silences every per-router local invariant check
	// while the distance labels stay in place — the failure mode of a
	// local-check mode that certifies updates it never validated. The
	// localcheck-superset oracle must catch it on update-in-flight
	// snapshots, where a silenced checker leaves a central violation with
	// no local flag to escalate it.
	BugSkipLocalCheck = "skip-local-check"
	// BugSkipCutExtension verifies a lagged collection cut as first
	// collected, unextended — a verifier that does not wait for the routers
	// it should (Fig. 1c). The snapshot oracle must catch the loop it shows.
	BugSkipCutExtension = "skip-cut-extension"
	// BugStaleDerive makes the incremental strategy answer a cut with the
	// cached graph minus the hidden vertices and nothing re-derived, so an
	// event whose nearest match was hidden lacks the next-nearest one. The
	// incremental-vs-full oracle must catch it on its random cuts.
	BugStaleDerive = "stale-derive"
	// BugNarrowTail makes an incremental extension re-derive only from the
	// new suffix's earliest time on, so an older receive keeps the send a
	// nearer suffix send displaced. The incremental-vs-full oracle must catch
	// it on its dripped cache, whose boundaries fall between send and receive.
	BugNarrowTail = "narrow-tail"
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
	Bug      string  `json:"bug,omitempty"`
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
	// Loops lists every forwarding loop the snapshot oracle met in a
	// collected cut, whatever it made of it.
	Loops []SnapshotLoop
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

	if cfg.Bug == BugSwapSendMatch {
		hbr.SetSwapSendMatchBug(true)
		defer hbr.SetSwapSendMatchBug(false)
	}
	if cfg.Bug == BugInternAlias {
		route.SetInternAliasBug(true)
		defer route.SetInternAliasBug(false)
	}
	if cfg.Bug == BugStaleDerive {
		hbr.SetStaleDeriveBug(true)
		defer hbr.SetStaleDeriveBug(false)
	}
	if cfg.Bug == BugNarrowTail {
		hbr.SetNarrowTailBug(true)
		defer hbr.SetNarrowTailBug(false)
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

	h := newHarness(cfg, w)
	defer h.serve.Close()
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
		res.Loops = h.loops
		if f != nil {
			res.Failure = f
			res.IOs = w.net.Log.Len()
			res.Rounds = round
			return res
		}
		res.Rounds = round + 1
	}
	res.IOs = w.net.Log.Len()
	return res
}

// harness holds the inference / verification / repair stack under test.
// It mirrors the production wiring in hbverify.NewPipeline but owns its
// pieces so bugs can be injected between them.
type harness struct {
	cfg    Config
	w      *world
	reg    *metrics.Registry
	inc    *hbr.Incremental
	strat  hbr.Strategy
	full   hbr.Rules
	engine *repair.Engine
	// The delta verification path under test: incremental equivalence
	// classes fed by FIB updates, and a checker whose walks persist in
	// wcache across rounds with per-router invalidation.
	eqc    *eqclass.Incremental
	wcache *verify.WalkCache
	cached *verify.Checker
	// The query engine under test: shares wcache and eqc with the delta
	// path, so its plans persist across rounds and churn invalidates them
	// through the same feed the batch checker relies on.
	serve *serve.Engine
	// The windowed-compaction mirror for the compaction-vs-full oracle:
	// cwin is the retained capture window (original log IDs preserved),
	// folded into cinc before every eviction exactly as the stream daemon
	// folds before compacting; cseen counts log events already mirrored.
	cRules hbr.Rules
	cinc   *hbr.Incremental
	cwin   []capture.IO
	cseen  int
	// loops is what the snapshot oracle has met so far (Result.Loops).
	loops []SnapshotLoop
	// drip is fed the log in 1–64-event steps (dripped counts them), where
	// inc sees it a converged round at a time.
	drip    *hbr.Incremental
	dripped int
}

func newHarness(cfg Config, w *world) *harness {
	h := &harness{cfg: cfg, w: w, reg: metrics.NewRegistry()}
	h.inc = hbr.NewIncremental(hbr.Rules{}, h.reg)
	h.strat = h.inc
	h.drip = hbr.NewIncremental(hbr.Rules{}, h.reg)
	if cfg.Bug == BugStaleCache {
		h.strat = &staleStrategy{base: h.strat}
	}
	// The compaction mirror needs rule windows small enough that churn
	// rounds (roundGap apart) actually age past the retention floor, and a
	// skew slack covering the worlds' ±20ms clock offsets twice over.
	h.cRules = hbr.Rules{Window: 200 * time.Millisecond,
		ConfigWindow: 500 * time.Millisecond, CrossWindow: 200 * time.Millisecond}
	h.cinc = hbr.NewIncremental(h.cRules, h.reg)
	h.cinc.SkewSlack = compactSlack
	h.eqc = eqclass.NewIncremental(h.reg)
	h.wcache = verify.NewWalkCache()
	if cfg.Bug == BugStaleEqclass {
		// Seed once, never subscribe: the classifier and walk cache go
		// stale the moment the first post-seed FIB update lands.
		for _, r := range w.net.Routers() {
			h.eqc.Seed(r.Name, r.FIB.Snapshot())
		}
	} else {
		for _, r := range w.net.Routers() {
			name := r.Name
			h.eqc.Watch(name, r.FIB)
			r.FIB.OnChange(func(fib.Update) { h.wcache.InvalidateRouter(name) })
		}
		w.net.OnLinkChange(func(a, b string, up bool) {
			h.wcache.InvalidateRouter(a)
			h.wcache.InvalidateRouter(b)
		})
	}
	h.cached = verify.NewChecker(h.liveWalker(), w.verifySources)
	h.cached.Cache = h.wcache
	// The query engine serves from the same live walker, plan cache, and
	// classifier; MaxQueue is negative so the sequential oracle never sheds.
	h.serve = serve.New(serve.Config{
		Executor:     serve.WalkerExecutor{W: h.liveWalker()},
		Cache:        h.wcache,
		Classes:      h.eqc,
		Metrics:      h.reg,
		MaxQueue:     -1,
		BugStalePlan: cfg.Bug == BugStalePlan,
	})
	cold := verify.NewChecker(h.liveWalker(), w.verifySources)
	cold.Metrics = h.reg
	h.engine = repair.NewEngine(w.net, h.infer, cold.Check)
	h.engine.Invalidate = func() {
		h.inc.Invalidate()
		if cfg.Bug != BugStaleEqclass {
			h.eqc.Reset()
			h.wcache.Flush()
		}
	}
	return h
}

// infer is the harness's production inference path: the (possibly bugged)
// incremental strategy over the oracle-stripped log.
func (h *harness) infer(v capture.View) *hbg.Graph {
	return h.strat.Infer(v.Stripped(nil))
}

// checkRound runs the eleven oracles in order and returns the first
// failure. The intern-vs-copy oracle runs first: aliased attributes would
// corrupt every downstream observable, so a canonical-table fault should be
// reported as such. The fast-vs-reference oracle runs next so any
// divergence in the inference rewrite is reported as such, not as a
// downstream repair/snapshot anomaly; the eqclass-delta oracle runs after
// repair-rollback, so it also validates that the delta state survives (is
// correctly flushed across) a fault injection and rollback. serve-vs-batch
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

// staleStrategy is BugStaleCache: it computes once and then returns the
// frozen graph forever.
type staleStrategy struct {
	base hbr.Strategy
	g    *hbg.Graph
}

func (s *staleStrategy) Name() string { return "stale(" + s.base.Name() + ")" }

func (s *staleStrategy) Infer(ios []capture.IO) *hbg.Graph {
	if s.g == nil {
		s.g = s.base.Infer(ios)
	}
	return s.g
}

// advance moves virtual time forward by d even when the event queue is
// empty (RunUntil alone never advances the clock past the last event).
func advance(n *network.Network, d time.Duration) error {
	n.Sched.At(n.Sched.Now().Add(d), func() {})
	return n.Run()
}
