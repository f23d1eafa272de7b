// Package verify implements the data-plane verifier: given a (snapshot or
// live) FIB view and a set of policies, it walks representative packets and
// reports violations — forwarding loops, blackholes, wrong egress points,
// and missed waypoints.
//
// The verifier deliberately knows nothing about the control plane; as §2
// of the paper stresses, that is both its strength (full coverage of
// whatever the control plane actually computed) and its weakness (it
// cannot explain violations — that is the happens-before machinery's job).
package verify

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/metrics"
)

// Kind selects a policy check.
type Kind uint8

// Policy kinds.
const (
	// Reachable: packets from every source must be Delivered.
	Reachable Kind = iota
	// NoLoop: no walk may revisit a router.
	NoLoop
	// NoBlackhole: no walk may be Dropped or Stuck.
	NoBlackhole
	// Egress: delivered packets must exit at the Expect router.
	Egress
	// Waypoint: every walk must traverse the Expect router.
	Waypoint
	// Avoid: no walk may traverse the Expect router.
	Avoid
	// EcmpConsistent: equal-cost paths must agree — a symbolic walk may not
	// split into different egresses (DivergentEgress) or deliver on some
	// branches while dropping on others (PartialBlackhole).
	EcmpConsistent
)

var kindNames = [...]string{"reachable", "no-loop", "no-blackhole", "egress", "waypoint", "avoid", "ecmp-consistent"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Policy is one declarative requirement on the data plane.
type Policy struct {
	Kind   Kind
	Prefix netip.Prefix
	// Sources restricts which routers packets are injected at; empty means
	// the checker's default source set.
	Sources []string
	// Expect names the required egress/waypoint/avoided router for the
	// kinds that need one.
	Expect string
}

func (p Policy) String() string {
	s := fmt.Sprintf("%s(%s", p.Kind, p.Prefix)
	if p.Expect != "" {
		s += " @" + p.Expect
	}
	return s + ")"
}

// Violation is one failed check.
type Violation struct {
	Policy Policy
	Source string
	Walk   dataplane.Walk
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s from %s: %s (%s)", v.Policy, v.Source, v.Reason, v.Walk)
}

// Report aggregates a verification run.
type Report struct {
	Violations []Violation
	// Checked is the number of (policy, source) checks answered: evaluated
	// against a walk, or certified without one.
	Checked int
	// Walks is the number of data-plane walks actually executed this run;
	// Cached is how many distinct walks were answered from the checker's
	// walk cache instead; Deduped is how many checks were answered by a
	// walk shared with another check (same source and destination header,
	// or same forwarding equivalence class when the checker is
	// class-sharded).
	Walks   int
	Cached  int
	Deduped int
	// Certified is how many checks the checker's certificate answered
	// instead of a walk; they count in Checked.
	Certified int
	// Errors is how many checks have no verdict because the executor could
	// not complete their walk; they do not count in Checked.
	Errors int

	// The grid the run expanded, kept so Results can replay it.
	checks []check
	walks  []dataplane.Walk
	errs   []error
}

// OK reports whether every check was answered and none failed.
func (r Report) OK() bool { return len(r.Violations) == 0 && r.Errors == 0 }

// Summary renders "ok (N checks)" or the violation and error counts.
func (r Report) Summary() string {
	switch {
	case r.OK():
		return fmt.Sprintf("ok (%d checks)", r.Checked)
	case r.Errors > 0:
		return fmt.Sprintf("%d violations in %d checks, %d checks unanswered", len(r.Violations), r.Checked, r.Errors)
	}
	return fmt.Sprintf("%d violations in %d checks", len(r.Violations), r.Checked)
}

// Result is how one (policy, source) check was answered: by a walk, by the
// certificate (no walk), or not at all (Err).
type Result struct {
	Policy    Policy
	Source    string
	Walk      dataplane.Walk
	Certified bool
	Err       error
}

// Results lists every check of the run in grid order: policy order, then
// the policy's sources in order.
func (r Report) Results() []Result {
	out := make([]Result, len(r.checks))
	for i, ch := range r.checks {
		out[i] = Result{Policy: ch.policy, Source: ch.src}
		if ch.walk < 0 {
			out[i].Certified = true
		} else if r.errs != nil && r.errs[ch.walk] != nil {
			out[i].Err = r.errs[ch.walk]
		} else {
			out[i].Walk = r.walks[ch.walk]
		}
	}
	return out
}

// WalkKey identifies one distinct data-plane walk: a probe header injected
// at a source router.
type WalkKey struct {
	Source string
	Dst    netip.Addr
}

// Executor runs a batch of distinct walks — the one thing that differs
// between verifying centrally and verifying across the router fleet.
// ExecuteWalks returns keys[i]'s walk at index i. errs is nil when every
// walk completed; otherwise errs[i] is non-nil for each walk that did not,
// and that walk's checks get no verdict. Implementations must be safe for
// concurrent calls: the query engine issues one per in-flight plan.
type Executor interface {
	ExecuteWalks(keys []WalkKey) (walks []dataplane.Walk, errs []error)
}

// WalkerExecutor is the central executor: a bounded worker pool over one
// walker. dataplane.Walker is safe for concurrent walks.
type WalkerExecutor struct {
	W *dataplane.Walker
	// workers bounds the pool (Checker.Workers); 0 means GOMAXPROCS, 1
	// walks on the calling goroutine.
	workers int
}

// ExecuteWalk runs one walk on the calling goroutine.
func (e WalkerExecutor) ExecuteWalk(src string, dst netip.Addr) (dataplane.Walk, error) {
	return e.W.Forward(src, dst), nil
}

// ExecuteWalks implements Executor; a central walk cannot fail.
func (e WalkerExecutor) ExecuteWalks(keys []WalkKey) ([]dataplane.Walk, []error) {
	walks := make([]dataplane.Walk, len(keys))
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers <= 1 {
		for i, k := range keys {
			walks[i] = e.W.Forward(k.Source, k.Dst)
		}
		return walks, nil
	}
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				walks[i] = e.W.Forward(keys[i].Source, keys[i].Dst)
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	return walks, nil
}

// Checker is the verifier: it expands policies into (policy, source)
// checks, maps them onto distinct (source, destination) walks, answers what
// it can from the walk cache, hands the rest to an Executor, and evaluates
// every check in deterministic grid order. How the walks run (Executor) and
// which checks need no walk at all (Certified) are the only things that
// differ between the central, fleet and local-check verification modes.
type Checker struct {
	// Walker is what the default executor walks; unused when Executor is set.
	Walker *dataplane.Walker
	// Sources is the default packet injection set.
	Sources []string
	// Workers bounds the default executor's walk pool; 0 means GOMAXPROCS,
	// 1 forces serial execution.
	Workers int
	// Metrics optionally receives verify.* counters and per-policy-kind
	// latency timers.
	Metrics *metrics.Registry
	// Cache optionally reuses walks across Check calls; the caller must
	// call its InvalidateRouter whenever a router's forwarding state changes.
	// Nil disables caching — every Check walks from scratch.
	Cache *WalkCache
	// Executor runs the walks the cache cannot answer; nil means a
	// WalkerExecutor over Walker with Workers.
	Executor Executor
	// Certified, when set, is a certificate that forwarding from source
	// toward prefix terminates in delivery without a loop. It answers the
	// check instead of a walk for the three kinds that claim implies
	// (Reachable, NoLoop, NoBlackhole); every other kind is always walked.
	Certified func(source string, prefix netip.Prefix) bool
}

// NewChecker builds a checker with the default worker pool (GOMAXPROCS).
func NewChecker(w *dataplane.Walker, sources []string) *Checker {
	s := append([]string(nil), sources...)
	sort.Strings(s)
	return &Checker{Walker: w, Sources: s}
}

// check is one (policy, source) evaluation awaiting its walk.
type check struct {
	policy Policy
	src    string
	walk   int // index into the deduplicated walk list; -1 when certified
}

// certifiable reports whether a delivery certificate answers the kind: the
// three global safety properties it implies. Egress pinning, waypoints,
// isolation and ECMP consistency depend on the path taken, which only a
// walk shows.
func (k Kind) certifiable() bool {
	return k == Reachable || k == NoLoop || k == NoBlackhole
}

// Check runs every policy and aggregates violations. Violation order is
// deterministic (policy order, then sorted source order) regardless of the
// executor.
func (c *Checker) Check(policies []Policy) Report {
	start := time.Now()
	var (
		rep    Report
		checks []check
		keys   []WalkKey
		walkIx = map[WalkKey]int{}
	)
	for _, p := range policies {
		sources := p.Sources
		if len(sources) == 0 {
			sources = c.Sources
		}
		dst := dataplane.Representative(p.Prefix)
		certifiable := c.Certified != nil && p.Kind.certifiable()
		for _, src := range sources {
			if certifiable && c.Certified(src, p.Prefix) {
				rep.Certified++
				checks = append(checks, check{policy: p, src: src, walk: -1})
				continue
			}
			k := WalkKey{Source: src, Dst: dst}
			ix, ok := walkIx[k]
			if !ok {
				ix = len(keys)
				walkIx[k] = ix
				keys = append(keys, k)
			}
			checks = append(checks, check{policy: p, src: src, walk: ix})
		}
	}

	// Resolve what we can from the walk cache; only the misses execute.
	// The epoch is captured before any cache read so an invalidation
	// racing with this run stamps our stored walks as already stale.
	walks := make([]dataplane.Walk, len(keys))
	miss := make([]int, 0, len(keys)) // indices into keys that must execute
	var cacheEpoch uint64
	if c.Cache != nil {
		cacheEpoch = c.Cache.Begin()
		for i, k := range keys {
			if w, ok := c.Cache.Lookup(k.Source, k.Dst); ok {
				walks[i] = w
			} else {
				miss = append(miss, i)
			}
		}
	} else {
		for i := range keys {
			miss = append(miss, i)
		}
	}

	var errs []error
	if len(miss) > 0 {
		run := keys
		if len(miss) < len(keys) {
			run = make([]WalkKey, len(miss))
			for j, i := range miss {
				run[j] = keys[i]
			}
		}
		exec := c.Executor
		if exec == nil {
			exec = WalkerExecutor{W: c.Walker, workers: c.Workers}
		}
		got, failed := exec.ExecuteWalks(run)
		if failed != nil {
			errs = make([]error, len(keys))
		}
		for j, i := range miss {
			if failed != nil && failed[j] != nil {
				errs[i] = failed[j]
				continue
			}
			walks[i] = got[j]
			if c.Cache != nil {
				c.Cache.Store(keys[i].Source, keys[i].Dst, got[j], cacheEpoch)
			}
		}
	}

	rep.Walks = len(miss)
	rep.Cached = len(keys) - len(miss)
	rep.Deduped = len(checks) - rep.Certified - len(keys)
	rep.checks, rep.walks, rep.errs = checks, walks, errs
	var (
		kindDur    [len(kindNames)]time.Duration
		kindChecks [len(kindNames)]int64
		timed      = c.Metrics != nil
	)
	for _, ch := range checks {
		if ch.walk < 0 {
			rep.Checked++
			continue
		}
		if errs != nil && errs[ch.walk] != nil {
			rep.Errors++
			continue
		}
		rep.Checked++
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		v, bad := Evaluate(ch.policy, ch.src, walks[ch.walk])
		if timed && int(ch.policy.Kind) < len(kindNames) {
			kindDur[ch.policy.Kind] += time.Since(t0)
			kindChecks[ch.policy.Kind]++
		}
		if bad {
			rep.Violations = append(rep.Violations, v)
		}
	}
	if m := c.Metrics; m != nil {
		m.Counter("verify.checks").Add(int64(rep.Checked))
		m.Counter("verify.walks.executed").Add(int64(rep.Walks))
		m.Counter("verify.walks.cached").Add(int64(rep.Cached))
		m.Counter("verify.walks.deduped").Add(int64(rep.Deduped))
		m.Counter("verify.violations").Add(int64(len(rep.Violations)))
		m.Histogram("verify.check").Observe(time.Since(start))
		for k, n := range kindChecks {
			if n == 0 {
				continue
			}
			m.Histogram("verify.policy." + Kind(k).String()).Observe(kindDur[k])
			m.Counter("verify.policy." + Kind(k).String() + ".checks").Add(n)
		}
	}
	return rep
}

// Evaluate applies one policy to one finished walk.
func Evaluate(p Policy, src string, walk dataplane.Walk) (Violation, bool) {
	fail := func(reason string) (Violation, bool) {
		return Violation{Policy: p, Source: src, Walk: walk, Reason: reason}, true
	}
	switch p.Kind {
	case Reachable:
		// DivergentEgress still means every equal-cost branch delivered —
		// reachability holds even though the exit points disagree.
		if walk.Outcome != dataplane.Delivered && walk.Outcome != dataplane.DivergentEgress {
			return fail("not delivered: " + walk.Outcome.String())
		}
	case NoLoop:
		if walk.Outcome == dataplane.Looped {
			return fail("forwarding loop")
		}
	case NoBlackhole:
		switch walk.Outcome {
		case dataplane.Dropped, dataplane.Stuck, dataplane.PartialBlackhole:
			return fail("blackhole: " + walk.Outcome.String())
		}
	case Egress:
		if walk.Outcome == dataplane.DivergentEgress {
			return fail(fmt.Sprintf("divergent egresses %v, want %s", walk.Egresses, p.Expect))
		}
		if walk.Outcome != dataplane.Delivered {
			return fail("not delivered: " + walk.Outcome.String())
		}
		if walk.Egress != p.Expect {
			return fail(fmt.Sprintf("egress %s, want %s", walk.Egress, p.Expect))
		}
	case Waypoint:
		// A branched walk's Path lists every router it visits, so membership
		// there proves only that SOME branch hits the waypoint; Through
		// lists the routers on every trajectory (nil when none ends).
		switch {
		case walk.Branches == 0 && !slices.Contains(walk.Path, p.Expect):
			return fail("waypoint " + p.Expect + " bypassed")
		case walk.Through != nil && !slices.Contains(walk.Through, p.Expect):
			return fail("waypoint " + p.Expect + " bypassed on an equal-cost branch")
		}
	case Avoid:
		// Path holds every visited router even for symbolic walks, and every
		// visited router lies on some concrete trajectory, so a membership
		// scan is exact for Avoid.
		for _, r := range walk.Path {
			if r == p.Expect {
				return fail("traversed avoided router " + p.Expect)
			}
		}
	case EcmpConsistent:
		switch walk.Outcome {
		case dataplane.DivergentEgress, dataplane.PartialBlackhole:
			return fail("equal-cost branches disagree: " + walk.Outcome.String())
		}
	}
	return Violation{}, false
}
