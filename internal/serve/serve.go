// Package serve turns verification into a query service: the paper's
// position is that verification runs continuously *inside* the control
// plane (§5), which means an operator must be able to ask "is A reachable
// from B right now?" or "would this commit break isolation?" without
// paying a full batch round. The engine answers concurrent point queries
// by planning each one onto the state the batch path already maintains:
//
//   - A planner canonicalizes the query prefix through the incremental
//     equivalence classifier (eqclass.Incremental.ClassOf), so every query
//     over the same forwarding equivalence class lands on the same plan —
//     one (source, probe header) walk — and the class representative's
//     walk answers all of them.
//   - The plan cache IS verify.WalkCache, shared with the batch verifier:
//     churn (FIB deltas, link flips) invalidates only plans whose walk
//     crossed a changed router, via the existing epoch/floor machinery,
//     never the whole engine.
//   - Queries that miss the cache coalesce: concurrent arrivals on the
//     same plan share one in-flight walk (a single leader executes, the
//     rest wait on it), mirroring how the batch checker dedupes its
//     (policy × source) grid.
//   - An admission layer bounds in-flight walks with a token window
//     (dist's backpressure pattern) and sheds load past a queue bound
//     with ErrOverloaded rather than letting latency collapse.
//
// What-if queries ("would this commit break anything") run through
// internal/whatif on an emulated copy; they are far heavier than point
// queries, so they share the token window but are never cached — only
// coalesced by the caller-provided key.
package serve

import (
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/eqclass"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/verify"
	"hbverify/internal/whatif"
)

// Errors returned by Query.
var (
	// ErrClosed: the engine was shut down before or while the query ran.
	ErrClosed = errors.New("serve: engine closed")
	// ErrOverloaded: admission shed the query; the caller should back off.
	ErrOverloaded = errors.New("serve: overloaded, query shed")
)

// WalkerExecutor executes plans on the central data-plane walker; the
// fleet executor in internal/dist runs them across the router nodes.
type WalkerExecutor = verify.WalkerExecutor

// Query is one question for the engine. Policy queries set Policy and
// Source; what-if queries set WhatIf (and Key for coalescing) instead.
type Query struct {
	// Policy is the check to evaluate (reachability, waypoint, isolation —
	// any verify.Kind) against the walk from Source toward Policy.Prefix.
	Policy verify.Policy
	// Source is the router the probe is injected at.
	Source string
	// WhatIf, when non-empty, makes this a hypothetical: the changes are
	// applied to an emulated copy and the answer reports whether they
	// introduce any new violation of the engine's standing policies.
	WhatIf []whatif.Change
	// Key identifies a what-if query for coalescing — changes are opaque
	// closures, so equality is the caller's claim. Empty disables
	// coalescing for this query.
	Key string
}

// Reachability asks: do packets from source reach prefix?
func Reachability(source string, prefix netip.Prefix) Query {
	return Query{Source: source, Policy: verify.Policy{Kind: verify.Reachable, Prefix: prefix}}
}

// Waypoint asks: does traffic from source toward prefix traverse via?
func Waypoint(source string, prefix netip.Prefix, via string) Query {
	return Query{Source: source, Policy: verify.Policy{Kind: verify.Waypoint, Prefix: prefix, Expect: via}}
}

// Isolation asks: is traffic from source toward prefix kept away from
// avoid? (The verifier's Avoid kind — §2's isolation policy.)
func Isolation(source string, prefix netip.Prefix, avoid string) Query {
	return Query{Source: source, Policy: verify.Policy{Kind: verify.Avoid, Prefix: prefix, Expect: avoid}}
}

// WhatIf asks: would these changes break any standing policy? key
// coalesces identical concurrent asks.
func WhatIf(key string, changes ...whatif.Change) Query {
	return Query{Key: key, WhatIf: changes}
}

// Answer is the engine's verdict on one query.
type Answer struct {
	// OK reports the policy held (or, for what-if, that the changes
	// introduce no new violation).
	OK bool
	// Violations lists the failures; for what-if, only the *introduced*
	// ones (pre-existing baseline violations are not the change's fault).
	Violations []verify.Violation
	// Walk is the data-plane walk the verdict was evaluated on (policy
	// queries only).
	Walk dataplane.Walk
	// PlanKey names the canonical plan this query mapped to, "source→probe".
	PlanKey string
	// CacheHit: the plan's walk came from the shared plan cache.
	CacheHit bool
	// Coalesced: this query joined another in-flight query's walk.
	Coalesced bool
	// Latency is the end-to-end service time for this query.
	Latency time.Duration
}

// Config assembles an engine from the state a Pipeline already maintains.
// Every field is required.
type Config struct {
	// Executor runs the walks. The engine hands it one plan at a time, from
	// as many goroutines as the window admits.
	Executor verify.Executor
	// Cache is the shared plan cache (typically the pipeline's WalkCache,
	// so batch verification and churn invalidation are shared).
	Cache *verify.WalkCache
	// Classes canonicalizes query prefixes onto equivalence-class
	// representatives.
	Classes *eqclass.Incremental
	// WhatIf runs hypothetical queries on copies of Blueprint.
	WhatIf    *whatif.Engine
	Blueprint *network.Blueprint
	// Metrics receives serve.* instruments.
	Metrics *metrics.Registry
}

// Admission bounds: window concurrently executing walks, and maxQueue plan
// leaders waiting for a token before admission sheds with ErrOverloaded.
const (
	window   = 32
	maxQueue = 4 * window
)

// planKey identifies one canonical plan: the walk that answers it.
type planKey = verify.WalkKey

// flight is one in-flight plan execution; followers wait on done.
type flight struct {
	done chan struct{}
	walk dataplane.Walk
	res  whatif.Result // what-if flights only
	err  error
}

// Engine answers verification queries concurrently. Safe for concurrent
// use; Close shuts it down (in-flight queries finish or fail fast).
type Engine struct {
	cfg Config

	tokens chan struct{}
	queued atomic.Int64

	closeOnce sync.Once
	closed    chan struct{}

	mu       sync.Mutex
	flights  map[planKey]*flight
	wflights map[string]*flight

	latency  *metrics.Histogram
	inflight *metrics.Gauge
	// The serve.* counters, resolved once so a query takes no registry lock.
	queries, hits, coalesced, executed, rejected, whatifs *metrics.Counter
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Executor == nil || cfg.Cache == nil || cfg.Classes == nil || cfg.WhatIf == nil || cfg.Blueprint == nil || cfg.Metrics == nil {
		panic("serve: Config is missing a required field")
	}
	reg := cfg.Metrics
	e := &Engine{
		cfg:      cfg,
		tokens:   make(chan struct{}, window),
		closed:   make(chan struct{}),
		flights:  map[planKey]*flight{},
		wflights: map[string]*flight{},
		latency:  reg.Histogram("serve.query.latency"),
		inflight: reg.Gauge("serve.inflight"),

		queries:   reg.Counter("serve.queries"),
		hits:      reg.Counter("serve.plan.hits"),
		coalesced: reg.Counter("serve.plan.coalesced"),
		executed:  reg.Counter("serve.plan.executed"),
		rejected:  reg.Counter("serve.rejected"),
		whatifs:   reg.Counter("serve.whatif"),
	}
	return e
}

// Metrics returns the engine's registry (serve.* instruments).
func (e *Engine) Metrics() *metrics.Registry { return e.cfg.Metrics }

// Close shuts the engine down: queued and future queries fail with
// ErrClosed; the walk a leader already started is allowed to finish.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.closed) })
}

// Stats summarizes the engine's service counters.
type Stats struct {
	Queries   int64 // policy queries answered (errors excluded)
	PlanHits  int64 // answered from the shared plan cache
	Coalesced int64 // joined another query's in-flight walk
	Executed  int64 // walks actually executed
	Rejected  int64 // shed by admission (ErrOverloaded)
	WhatIfs   int64 // hypothetical queries answered
}

// HitRatio is the fraction of policy queries answered without executing a
// walk (cache hit or coalesced join).
func (s Stats) HitRatio() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.PlanHits+s.Coalesced) / float64(s.Queries)
}

// Stats reads the current service counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Queries:   e.queries.Value(),
		PlanHits:  e.hits.Value(),
		Coalesced: e.coalesced.Value(),
		Executed:  e.executed.Value(),
		Rejected:  e.rejected.Value(),
		WhatIfs:   e.whatifs.Value(),
	}
}

// probeFor canonicalizes a query prefix to its plan's probe header: the
// representative address of the prefix's forwarding equivalence class when
// classified, the prefix's own representative otherwise. Classification is
// delta-maintained, so this is a map lookup, not a re-sign.
func (e *Engine) probeFor(p netip.Prefix) netip.Addr {
	if rep, ok := e.cfg.Classes.ClassOf(p); ok {
		return dataplane.Representative(rep)
	}
	return dataplane.Representative(p)
}

// Query answers one query. Concurrent calls are the point: queries over
// the same equivalence class share cached or in-flight walks, and the
// token window bounds what actually executes.
func (e *Engine) Query(q Query) (Answer, error) {
	start := time.Now()
	select {
	case <-e.closed:
		return Answer{}, ErrClosed
	default:
	}
	if len(q.WhatIf) > 0 {
		return e.whatIf(q, start)
	}

	probe := e.probeFor(q.Policy.Prefix)
	k := planKey{Source: q.Source, Dst: probe}
	// "source→probe", built on the stack: the string is a hit's one allocation.
	var buf [64]byte
	key := append(append(buf[:0], k.Source...), "→"...)
	ans := Answer{PlanKey: string(k.Dst.AppendTo(key))}

	walk, how, err := e.planWalk(k)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			e.rejected.Inc()
		}
		return Answer{}, err
	}
	ans.Walk = walk
	ans.CacheHit = how == planHit
	ans.Coalesced = how == planJoined

	if v, bad := verify.Evaluate(q.Policy, q.Source, walk); bad {
		ans.Violations = append(ans.Violations, v)
	}
	ans.OK = len(ans.Violations) == 0
	ans.Latency = time.Since(start)
	e.latency.Observe(ans.Latency)
	e.queries.Inc()
	switch how {
	case planHit:
		e.hits.Inc()
	case planJoined:
		e.coalesced.Inc()
	case planExecuted:
		e.executed.Inc()
	}
	return ans, nil
}

// how a plan's walk was obtained.
type planSource int

const (
	planHit planSource = iota
	planJoined
	planExecuted
)

// planWalk resolves the plan's walk: cache hit, joined flight, or a fresh
// execution under admission.
func (e *Engine) planWalk(k planKey) (dataplane.Walk, planSource, error) {
	if w, ok := e.cfg.Cache.Lookup(k.Source, k.Dst); ok {
		return w, planHit, nil
	}
	e.mu.Lock()
	if f, ok := e.flights[k]; ok {
		e.mu.Unlock()
		select {
		case <-f.done:
			return f.walk, planJoined, f.err
		case <-e.closed:
			return dataplane.Walk{}, planJoined, ErrClosed
		}
	}
	f := &flight{done: make(chan struct{})}
	e.flights[k] = f
	e.mu.Unlock()

	// Leader: capture the store epoch before the walk reads any forwarding
	// state, so an invalidation racing the walk stamps the stored plan as
	// already stale (the cache's Begin/Store contract).
	f.walk, f.err = e.execute(k, e.cfg.Cache.Begin())

	e.mu.Lock()
	delete(e.flights, k)
	e.mu.Unlock()
	close(f.done)
	return f.walk, planExecuted, f.err
}

// execute runs the walk under the admission window and stores the result
// as the plan's cached walk.
func (e *Engine) execute(k planKey, epoch uint64) (dataplane.Walk, error) {
	if err := e.acquire(); err != nil {
		return dataplane.Walk{}, err
	}
	walks, errs := e.cfg.Executor.ExecuteWalks([]planKey{k})
	e.release()
	if errs != nil && errs[0] != nil {
		return dataplane.Walk{}, errs[0]
	}
	w := walks[0]
	e.cfg.Cache.Store(k.Source, k.Dst, w, epoch)
	return w, nil
}

// acquire takes an admission token, shedding when too many leaders are
// already waiting and failing fast on shutdown.
func (e *Engine) acquire() error {
	if e.queued.Add(1) > maxQueue+window {
		e.queued.Add(-1)
		return ErrOverloaded
	}
	defer e.queued.Add(-1)
	select {
	case e.tokens <- struct{}{}:
		e.inflight.Set(int64(len(e.tokens)))
		return nil
	case <-e.closed:
		return ErrClosed
	}
}

func (e *Engine) release() {
	<-e.tokens
	e.inflight.Set(int64(len(e.tokens)))
}

// whatIf answers a hypothetical by converging an emulated copy. Heavy, so
// it holds an admission token for the whole emulation and is coalesced by
// key — never cached, since the hypothetical's baseline is the live state
// at ask time.
func (e *Engine) whatIf(q Query, start time.Time) (Answer, error) {
	var f *flight
	lead := false
	if q.Key != "" {
		e.mu.Lock()
		if exist, ok := e.wflights[q.Key]; ok {
			e.mu.Unlock()
			select {
			case <-exist.done:
				return e.whatIfAnswer(exist, q, start, true)
			case <-e.closed:
				return Answer{}, ErrClosed
			}
		}
		f = &flight{done: make(chan struct{})}
		e.wflights[q.Key] = f
		lead = true
		e.mu.Unlock()
	} else {
		f = &flight{done: make(chan struct{})}
		lead = true
	}
	if lead {
		if err := e.acquire(); err != nil {
			if errors.Is(err, ErrOverloaded) {
				e.rejected.Inc()
			}
			if q.Key != "" {
				e.mu.Lock()
				delete(e.wflights, q.Key)
				e.mu.Unlock()
			}
			f.err = err
			close(f.done)
			return Answer{}, err
		}
		res, err := e.cfg.WhatIf.Ask(e.cfg.Blueprint, q.WhatIf...)
		e.release()
		f.err = err
		if err == nil {
			f.res = res
		}
		if q.Key != "" {
			e.mu.Lock()
			delete(e.wflights, q.Key)
			e.mu.Unlock()
		}
		close(f.done)
	}
	return e.whatIfAnswer(f, q, start, false)
}

// whatIfAnswer converts a finished what-if flight into an Answer.
func (e *Engine) whatIfAnswer(f *flight, q Query, start time.Time, joined bool) (Answer, error) {
	if f.err != nil {
		return Answer{}, f.err
	}
	intro := f.res.NewViolations()
	ans := Answer{
		OK:         len(intro) == 0,
		Violations: intro,
		PlanKey:    "whatif:" + q.Key,
		Coalesced:  joined,
		Latency:    time.Since(start),
	}
	e.latency.Observe(ans.Latency)
	e.whatifs.Inc()
	if joined {
		e.coalesced.Inc()
	}
	return ans, nil
}
