package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hbverify"
	"hbverify/internal/dataplane"
	"hbverify/internal/eqclass"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/serve"
	"hbverify/internal/verify"
	"hbverify/internal/whatif"
)

// queryMix is the read path beside writes. Two clients, one per core, each
// sweep a fixed half of the ordered edge-pair queries. A pair of sweeps is
// one clean sweep, every plan a cache hit, and then, after the driving
// goroutine has flipped a static route on one edge router, the same sweep
// again: the plans whose walk crossed that router execute, the rest hit. A
// single query takes about 2 us, so no query is ever timed alone.
type queryMix struct {
	cfg     Config
	k       int
	warmup  int
	pairs   int
	order   []int // seeded order of the queries; each client takes one half
	writeAt []int // seeded order in which edge routers take the static

	net      *network.Network
	pipe     *hbverify.Pipeline
	eng      *serve.Engine
	edges    []string
	queries  []serve.Query
	want     []bool // each query's verdict in the first sweep
	standing []verify.Policy
	perWrite int64 // plans one write re-executes: those from or to the router
	done     int
}

func newQueryMix(cfg Config) (instance, error) {
	w := &queryMix{cfg: cfg, k: 8, warmup: 160, pairs: cfg.scaled(3000, 32)}
	if cfg.Smoke {
		w.k, w.warmup, w.pairs = 4, 4, 20
	}
	edges := w.k * w.k / 2
	rng := rand.New(rand.NewSource(cfg.Seed))
	w.order = rng.Perm(edges * (edges - 1))
	w.writeAt = rng.Perm(edges)
	w.perWrite = int64(2 * (edges - 1))
	return w, nil
}

func (w *queryMix) schedule() []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, w.order, w.writeAt)
	return b.Bytes()
}

func (w *queryMix) build() error {
	n, err := network.BuildFatTree(w.cfg.Seed, w.k)
	if err != nil {
		return err
	}
	n.Start()
	if err := n.Run(); err != nil {
		return err
	}
	w.net = n
	edges, loopbacks := fatTreeEdges(w.k)
	w.edges = edges
	for _, p := range loopbacks {
		w.standing = append(w.standing, verify.Policy{Kind: verify.Reachable, Prefix: p})
	}
	w.pipe = hbverify.NewPipeline(n, edges)
	w.eng = w.pipe.ServeEngine(w.standing)
	// One query per ordered edge pair, the kind by position, so every query
	// is its own (source, probe) plan.
	var all []serve.Query
	for si, src := range edges {
		for di, pfx := range loopbacks {
			if si == di {
				continue
			}
			switch (si + di) % 3 {
			case 0:
				all = append(all, serve.Reachability(src, pfx))
			case 1:
				all = append(all, serve.Waypoint(src, pfx, fmt.Sprintf("p%da0", di/(w.k/2))))
			default:
				all = append(all, serve.Isolation(src, pfx, "core0"))
			}
		}
	}
	for _, i := range w.order {
		w.queries = append(w.queries, all[i])
	}
	// The first full verification fills the plan cache and fixes the
	// verdict every later answer must repeat.
	w.want = nil
	if err := w.sweep(nil); err != nil {
		return fmt.Errorf("first sweep: %w", err)
	}
	if rep := w.pipe.Verify(w.standing); !rep.OK() {
		return fmt.Errorf("converged network is not clean: %s", rep.Summary())
	}
	for w.done < w.warmup {
		if _, _, err := w.pair(nil); err != nil {
			return fmt.Errorf("warm-up pair %d: %w", w.done, err)
		}
	}
	return nil
}

// sweep has both clients run their half of the queries once and checks
// every answer. The first sweep records the verdicts instead.
func (w *queryMix) sweep(tr *tracer) error {
	first := w.want == nil
	if first {
		w.want = make([]bool, len(w.queries))
	}
	half := len(w.queries) / 2
	errs := make([]error, 2)
	parent := tr.top()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr.spanUnder(parent, "serve.Query/half-sweep", func() {
				for i := c * half; i < (c+1)*half; i++ {
					ans, err := w.eng.Query(w.queries[i])
					switch {
					case err != nil:
						errs[c] = fmt.Errorf("query %d: %w", i, err)
						return
					case first:
						w.want[i] = ans.OK
					case ans.OK != w.want[i]:
						errs[c] = fmt.Errorf("query %d: verdict %v, first sweep said %v", i, ans.OK, w.want[i])
						return
					}
				}
			})
		}(c)
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// executed runs fn and checks how many plans it made the engine execute.
func (w *queryMix) executed(want int64, fn func() error) error {
	before := w.eng.Stats().Executed
	if err := fn(); err != nil {
		return err
	}
	if got := w.eng.Stats().Executed - before; got != want {
		return fmt.Errorf("engine executed %d plans, want %d", got, want)
	}
	return nil
}

func (w *queryMix) run(rec *recorder) error {
	for w.done < w.warmup+w.pairs {
		clean, written, err := w.pair(rec.tr)
		rec.check(&rec.op, clean, err)
		rec.check(&rec.heavy, written, err)
		if err == nil {
			rec.units += 2 * len(w.queries)
		}
	}
	return nil
}

// pair is one clean sweep, then a FIB write followed by the same sweep.
func (w *queryMix) pair(tr *tracer) (clean, written time.Duration, err error) {
	i := w.done
	w.done++
	tr.beginOp()
	start := time.Now()
	tr.span("sweep/clean", func() {
		err = w.executed(0, func() error { return w.sweep(tr) })
	})
	clean = time.Since(start)
	if err != nil {
		return clean, 0, err
	}
	tr.beginOp()
	start = time.Now()
	tr.span("sweep/after-write", func() {
		tr.span("fib.flip", func() {
			// Offered on even pairs, withdrawn again on the next.
			t := w.net.Router(w.edges[w.writeAt[i/2%len(w.writeAt)]]).FIB
			if i%2 == 0 {
				t.Offer(churnStatic)
			} else {
				t.Withdraw(route.ProtoStatic, churnStatic.Prefix)
			}
		})
		err = w.executed(w.perWrite, func() error { return w.sweep(tr) })
	})
	written = time.Since(start)
	if err == nil && i%16 == 15 {
		// A batch verification beside the queries, through the shared cache.
		tr.span("verify.Verify/batch", func() {
			if rep := w.pipe.Verify(w.standing); !rep.OK() {
				err = fmt.Errorf("batch verification: %s", rep.Summary())
			}
		})
	}
	return clean, written, err
}

func (w *queryMix) counts() map[string]int64 {
	st := w.eng.Stats()
	return map[string]int64{
		"serve.queries":       st.Queries,
		"serve.plan.executed": st.Executed,
		"serve.plan.hits":     st.PlanHits + st.Coalesced,
		"serve.rejected":      st.Rejected,
	}
}

func (w *queryMix) layers(rec *recorder, m map[string]float64) error {
	tr := rec.tr
	st := w.eng.Stats()
	clean, written := median(rec.op), median(rec.heavy)
	m["serve.hit_query_ns"] = clean * 1e6 / float64(len(w.queries))
	m["serve.miss_plan_us"] = (written - clean) * 1e3 / float64(w.perWrite)
	m["serve.hit_ratio"] = st.HitRatio()
	m["serve.executed_per_write"] = float64(st.Executed-int64(len(w.queries))) / float64(w.done)
	m["serve.coalesced"] = float64(st.Coalesced)
	m["serve.shed"] = float64(st.Rejected)
	m["serve.query_us_p99"] = float64(w.eng.Metrics().Histogram("serve.query.latency").Quantile(0.99)) / 1e3
	m["verify.batch_check_ms_p50"] = median(tr.durationsMs("verify.Verify/batch"))

	// The walks behind the plans, on their own: all of them on one
	// goroutine, timed as a whole because one walk is too short to time.
	exec := serve.WalkerExecutor{W: w.pipe.Walker()}
	var sweeps []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for _, q := range w.queries {
			if _, err := exec.ExecuteWalk(q.Source, dataplane.Representative(q.Policy.Prefix)); err != nil {
				return err
			}
		}
		sweeps = append(sweeps, float64(time.Since(start))/1e3/float64(len(w.queries)))
	}
	m["dataplane.walk_us_p50"] = median(sweeps)

	// ClassOf is on every query's path; the pipeline's classifier is not
	// exported, so a second one watches the same FIBs.
	classes := eqclass.NewIncremental(nil)
	for _, r := range w.net.Routers() {
		classes.Watch(r.Name, r.FIB)
	}
	classes.Update()
	const lookups = 1000
	start := time.Now()
	for rep := 0; rep < lookups; rep++ {
		for _, p := range w.standing {
			classes.ClassOf(p.Prefix)
		}
	}
	m["eqclass.classof_ns"] = float64(time.Since(start)) / float64(lookups*len(w.standing))

	// Two what-if emulations, to size a later what-if workload.
	var emulate []float64
	for i, link := range [][2]string{{"p0e0", "p0a0"}, {"p1e1", "p1a1"}} {
		start := time.Now()
		ans, err := w.eng.Query(serve.WhatIf(fmt.Sprintf("bench-%d", i), whatif.LinkFailure(link[0], link[1])))
		if err != nil {
			return fmt.Errorf("what-if %v: %w", link, err)
		}
		if !ans.OK {
			return fmt.Errorf("what-if %v: one link down must not break reachability: %v", link, ans.Violations)
		}
		emulate = append(emulate, float64(time.Since(start))/1e6)
	}
	m["whatif.emulate_ms"] = median(emulate)
	return nil
}

func (w *queryMix) close() {
	if w.eng != nil {
		w.eng.Close()
	}
	if w.pipe != nil {
		_ = w.pipe.Close() // no fleet was built; Close has nothing to fail on
	}
}
