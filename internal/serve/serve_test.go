package serve

import (
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/eqclass"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/verify"
	"hbverify/internal/whatif"
)

// paperWorld wires the paper network the way a Pipeline does: live FIB
// tables, a walker, an incremental classifier watching every FIB, and a
// walk cache invalidated per-router on FIB change.
type paperWorld struct {
	pn     *network.PaperNet
	tables map[string]*fib.Table
	walker *dataplane.Walker
	eqc    *eqclass.Incremental
	cache  *verify.WalkCache
}

func startPaper(t testing.TB) *paperWorld {
	t.Helper()
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	w := &paperWorld{
		pn:     pn,
		tables: map[string]*fib.Table{},
		eqc:    eqclass.NewIncremental(nil),
		cache:  verify.NewWalkCache(),
	}
	for _, r := range pn.Routers() {
		w.tables[r.Name] = r.FIB
		name := r.Name
		w.eqc.Watch(name, r.FIB)
		r.FIB.OnChange(func(fib.Update) { w.cache.InvalidateRouter(name) })
	}
	w.walker = dataplane.NewWalker(pn.Topo, dataplane.TableView(w.tables))
	return w
}

func (w *paperWorld) engine(cfg Config) *Engine {
	if cfg.Executor == nil {
		cfg.Executor = WalkerExecutor{W: w.walker}
	}
	if cfg.Cache == nil {
		cfg.Cache = w.cache
	}
	if cfg.Classes == nil {
		cfg.Classes = w.eqc
	}
	return New(cfg)
}

// Query answers must agree with a cold batch checker on the same state,
// and repeat queries on the same plan must come from the cache.
func TestQueryMatchesChecker(t *testing.T) {
	w := startPaper(t)
	e := w.engine(Config{})
	defer e.Close()

	queries := []Query{
		Reachability("r1", w.pn.P),
		Reachability("r3", w.pn.P),
		Waypoint("r3", w.pn.P, "r2"),
		Isolation("r1", w.pn.P, "r3"),
	}
	checker := verify.NewChecker(w.walker, []string{"r1", "r2", "r3"})
	for _, q := range queries {
		ans, err := e.Query(q)
		if err != nil {
			t.Fatalf("%v: %v", q.Policy, err)
		}
		pol := q.Policy
		pol.Sources = []string{q.Source}
		rep := checker.Check([]verify.Policy{pol})
		if ans.OK != rep.OK() {
			t.Errorf("%v from %s: serve OK=%v, batch OK=%v (%v)",
				q.Policy, q.Source, ans.OK, rep.OK(), rep.Violations)
		}
	}
	// Same plan again: cache hit, identical verdict.
	ans, err := e.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ans.CacheHit {
		t.Error("repeat query missed the plan cache")
	}
	st := e.Stats()
	if st.PlanHits == 0 || st.Executed == 0 {
		t.Errorf("stats = %+v, want hits and executions", st)
	}
}

// Two different policy kinds over the same (source, class) are one plan:
// the second query must not execute a second walk.
func TestQueriesShareClassPlan(t *testing.T) {
	w := startPaper(t)
	var execs atomic.Int64
	e := w.engine(Config{Executor: countingExec{w: w.walker, n: &execs}})
	defer e.Close()

	if _, err := e.Query(Reachability("r3", w.pn.P)); err != nil {
		t.Fatal(err)
	}
	a2, err := e.Query(Waypoint("r3", w.pn.P, "r2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("executed %d walks, want 1 (shared plan)", got)
	}
	if !a2.CacheHit {
		t.Error("second policy kind on the same class missed the cache")
	}
}

type countingExec struct {
	w *dataplane.Walker
	n *atomic.Int64
}

func (c countingExec) ExecuteWalks(keys []verify.WalkKey) ([]dataplane.Walk, []error) {
	c.n.Add(int64(len(keys)))
	return WalkerExecutor{W: c.w}.ExecuteWalks(keys)
}

// Churn on a router along the plan's path invalidates exactly that plan:
// the next query re-executes and reflects the new state.
func TestChurnInvalidatesPlan(t *testing.T) {
	w := startPaper(t)
	e := w.engine(Config{})
	defer e.Close()

	q := Reachability("r1", w.pn.P)
	first, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first query cannot be a cache hit")
	}
	// Touch a FIB on the walk's path; OnChange invalidates that router.
	onPath := first.Walk.Path[0]
	churn := netip.MustParsePrefix("55.0.0.0/24")
	w.tables[onPath].Offer(route.Route{
		Prefix: churn, Proto: route.ProtoStatic,
		NextHop: netip.MustParseAddr("10.0.1.2"),
	})
	second, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Error("query after on-path churn must re-execute")
	}
	// Populate a plan whose path avoids the churned router (r2's walk
	// egresses at e2), then churn the first router again: the untouched
	// plan must keep its cached walk while the touched one re-executes.
	other, err := e.Query(Reachability("r2", w.pn.P))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range other.Walk.Path {
		if r == onPath {
			t.Skipf("r2 walk unexpectedly traverses %s; cannot isolate plans", onPath)
		}
	}
	w.tables[onPath].Withdraw(route.ProtoStatic, churn)
	if ans, err := e.Query(q); err != nil || ans.CacheHit {
		t.Errorf("withdraw is churn too: hit=%v err=%v", ans.CacheHit, err)
	}
	if ans, err := e.Query(Reachability("r2", w.pn.P)); err != nil || !ans.CacheHit {
		t.Errorf("off-path plan should survive the churn: hit=%v err=%v", ans.CacheHit, err)
	}
}

// blockingExec parks every walk until released, counting executions.
type blockingExec struct {
	w       *dataplane.Walker
	gate    chan struct{}
	started chan struct{} // one tick per walk that began executing
	n       atomic.Int64
}

func (b *blockingExec) ExecuteWalks(keys []verify.WalkKey) ([]dataplane.Walk, []error) {
	b.n.Add(int64(len(keys)))
	if b.started != nil {
		b.started <- struct{}{}
	}
	<-b.gate
	return WalkerExecutor{W: b.w}.ExecuteWalks(keys)
}

// Concurrent queries that land on the same plan while its walk is in
// flight coalesce onto one execution.
func TestConcurrentQueriesCoalesce(t *testing.T) {
	w := startPaper(t)
	be := &blockingExec{w: w.walker, gate: make(chan struct{}), started: make(chan struct{}, 1)}
	e := w.engine(Config{Executor: be})
	defer e.Close()

	const followers = 8
	var wg sync.WaitGroup
	results := make([]Answer, followers+1)
	errs := make([]error, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = e.Query(Reachability("r1", w.pn.P))
	}()
	<-be.started // leader is executing; followers now join its flight
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Query(Reachability("r1", w.pn.P))
		}(i)
	}
	// Give the followers a moment to register on the flight, then release.
	time.Sleep(10 * time.Millisecond)
	close(be.gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := be.n.Load(); got != 1 {
		t.Errorf("executed %d walks, want 1", got)
	}
	coalesced := 0
	for _, a := range results {
		if a.Coalesced {
			coalesced++
		}
		if !a.OK {
			t.Errorf("unexpected violation: %+v", a.Violations)
		}
	}
	if coalesced == 0 {
		t.Error("no query reported joining the in-flight plan")
	}
	if st := e.Stats(); st.Coalesced != int64(coalesced) {
		t.Errorf("stats.Coalesced = %d, want %d", st.Coalesced, coalesced)
	}
}

// Admission sheds distinct-plan queries beyond Window+MaxQueue with
// ErrOverloaded instead of queueing without bound, and recovers once the
// backlog drains.
func TestAdmissionShedsOverload(t *testing.T) {
	w := startPaper(t)
	be := &blockingExec{w: w.walker, gate: make(chan struct{})}
	// No cache: every query executes, and the last one cannot be answered by
	// a plan the overload phase stored.
	e := New(Config{Executor: be, Classes: w.eqc, Window: 1, MaxQueue: 1})
	defer e.Close()

	// Distinct prefixes → distinct plans, so nothing coalesces either.
	prefix := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{60, byte(i), 0, 0}), 24)
	}
	const n = 12
	var (
		wg       sync.WaitGroup
		shed     atomic.Int64
		answered atomic.Int64
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Query(Reachability("r1", prefix(i)))
			switch {
			case err == nil:
				answered.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	// With one walk executing and at most Window+MaxQueue leaders parked
	// in admission, the remaining arrivals must shed. Wait for the first
	// shed before releasing the gate.
	deadline := time.After(5 * time.Second)
	for shed.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no query shed despite saturated window and queue")
		case <-time.After(time.Millisecond):
		}
	}
	close(be.gate)
	wg.Wait()
	if shed.Load() == 0 {
		t.Error("no query was shed despite Window=1 MaxQueue=1")
	}
	if answered.Load() == 0 {
		t.Error("every query was shed")
	}
	if st := e.Stats(); st.Rejected != shed.Load() {
		t.Errorf("stats.Rejected = %d, want %d", st.Rejected, shed.Load())
	}
	// The engine still serves after the overload clears.
	if _, err := e.Query(Reachability("r1", prefix(0))); err != nil {
		t.Errorf("query after overload: %v", err)
	}
}

// What-if queries run on the emulated copy and report only *introduced*
// violations; identical concurrent asks coalesce by key.
func TestWhatIfQueries(t *testing.T) {
	w := startPaper(t)
	policies := []verify.Policy{
		{Kind: verify.Reachable, Prefix: w.pn.P},
		{Kind: verify.NoLoop, Prefix: w.pn.P},
	}
	e := w.engine(Config{
		WhatIf:    &whatif.Engine{Seed: 7, Sources: []string{"r1", "r2", "r3"}, Policies: policies},
		Blueprint: w.pn.Blueprint(),
	})
	defer e.Close()

	// Failing one provider link keeps P reachable via the other provider.
	ans, err := e.Query(WhatIf("fail-r1-e1", whatif.LinkFailure("r1", "e1")))
	if err != nil {
		t.Fatal(err)
	}
	if !ans.OK {
		t.Errorf("single provider loss should keep P reachable: %+v", ans.Violations)
	}
	// Failing both providers strands P: the what-if must say so.
	ans, err = e.Query(WhatIf("fail-both",
		whatif.LinkFailure("r1", "e1"), whatif.LinkFailure("r2", "e2")))
	if err != nil {
		t.Fatal(err)
	}
	if ans.OK {
		t.Error("losing both providers must introduce a reachability violation")
	}
	if st := e.Stats(); st.WhatIfs != 2 {
		t.Errorf("stats.WhatIfs = %d, want 2", st.WhatIfs)
	}

	// Unconfigured engine rejects hypotheticals.
	bare := w.engine(Config{})
	defer bare.Close()
	if _, err := bare.Query(WhatIf("x", whatif.LinkFailure("r1", "e1"))); !errors.Is(err, ErrNoWhatIf) {
		t.Errorf("err = %v, want ErrNoWhatIf", err)
	}
}

// The injected stale-plan bug pins a plan's first walk across churn — the
// machinery the serve-vs-batch oracle must catch.
func TestBugStalePlanPinsWalk(t *testing.T) {
	w := startPaper(t)
	e := w.engine(Config{BugStalePlan: true})
	defer e.Close()

	q := Reachability("r1", w.pn.P)
	first, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Invalidate every router on the path; a correct engine would
	// re-execute, the buggy one must keep serving the pinned walk.
	for _, r := range first.Walk.Path {
		w.cache.InvalidateRouter(r)
	}
	second, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("buggy engine re-executed instead of serving the pinned plan")
	}
}
