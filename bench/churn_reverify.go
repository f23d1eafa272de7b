package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"hbverify"
	"hbverify/internal/dist"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/verify"
)

// churnUpdate is one scheduled write: a static route offered to or
// withdrawn from an edge router's FIB (one router dirty), or a down or up
// half-cycle of an intra-pod edge-aggregation link (OSPF floods, every
// router dirty).
type churnUpdate struct {
	link bool
	a, b string // the edge router; for a link, also the aggregation router
	on   bool   // offer the static, or bring the link up
}

// churnReverify is the delta path under writes: after every update a
// central pipeline re-verifies through the equivalence classes and the walk
// cache, and a second pipeline on the same network re-certifies through the
// TCP fleet's local checks.
type churnReverify struct {
	cfg    Config
	k      int
	warmup int
	plan   []churnUpdate

	net      *network.Network
	central  *hbverify.Pipeline
	fleet    *hbverify.Pipeline
	edges    []string
	policies []verify.Policy
	checks   int
	done     int // updates applied
	rounds   int // fleet rounds since the fleet was built

	fibUpdates int // FIB changes the current update caused, from our own OnChange hook
	tally      map[string]int64
}

var churnStatic = route.Route{
	Prefix:  netip.MustParsePrefix("55.0.0.0/24"),
	Proto:   route.ProtoStatic,
	NextHop: netip.MustParseAddr("10.255.255.1"),
}

// relabelEvery mirrors the pipeline's unexported localRelabelEvery: every
// 16th fleet round is a full walk round that re-derives the labels.
const relabelEvery = 16

func fatTreeEdges(k int) (edges []string, loopbacks []netip.Prefix) {
	for p := 0; p < k; p++ {
		for i := 0; i < k/2; i++ {
			edges = append(edges, fmt.Sprintf("p%de%d", p, i))
			loopbacks = append(loopbacks, route.MustPrefix(fmt.Sprintf("9.1.%d.%d/32", p, i+1)))
		}
	}
	return edges, loopbacks
}

func newChurnReverify(cfg Config) (instance, error) {
	// k=6, 45 routers: the k=8 fleet's 80 node goroutines widened the
	// run-to-run spread on two cores.
	w := &churnReverify{cfg: cfg, k: 6, warmup: 64, tally: map[string]int64{}}
	updates := cfg.scaled(1100, 64)
	if cfg.Smoke {
		w.k, w.warmup, updates = 4, 8, 32
	}
	w.edges, _ = fatTreeEdges(w.k)
	rng := rand.New(rand.NewSource(cfg.Seed))
	offered := map[string]bool{}
	var down *churnUpdate // at most one link is down, so every policy keeps holding
	for i := 0; i < w.warmup+updates; i++ {
		// Every fourth update is a link half-cycle, placed so that the fleet's
		// relabel rounds (every 16th) always follow a static flip. A relabel
		// round ships view deltas without waiting for the nodes to apply
		// them; after a link flap dirties every router, about one such round
		// in thirty walked a stale view and reported a phantom loop.
		if i%4 == 1 {
			if down != nil {
				w.plan = append(w.plan, churnUpdate{link: true, a: down.a, b: down.b, on: true})
				down = nil
				continue
			}
			pod := rng.Intn(w.k)
			u := churnUpdate{link: true, a: fmt.Sprintf("p%de%d", pod, rng.Intn(w.k/2)), b: fmt.Sprintf("p%da%d", pod, rng.Intn(w.k/2))}
			w.plan = append(w.plan, u)
			down = &u
			continue
		}
		r := w.edges[rng.Intn(len(w.edges))]
		offered[r] = !offered[r]
		w.plan = append(w.plan, churnUpdate{a: r, on: offered[r]})
	}
	return w, nil
}

func (w *churnReverify) schedule() []byte {
	var b bytes.Buffer
	for _, u := range w.plan {
		fmt.Fprintf(&b, "%v %s %s %v\n", u.link, u.a, u.b, u.on)
	}
	return b.Bytes()
}

func (w *churnReverify) build() error {
	n, err := network.BuildFatTree(w.cfg.Seed, w.k)
	if err != nil {
		return err
	}
	n.Start()
	if err := n.Run(); err != nil {
		return err
	}
	w.net = n
	_, loopbacks := fatTreeEdges(w.k)
	for _, p := range loopbacks {
		for _, kind := range []verify.Kind{verify.Reachable, verify.NoLoop, verify.NoBlackhole} {
			w.policies = append(w.policies, verify.Policy{Kind: kind, Prefix: p})
		}
	}
	w.checks = len(w.policies) * len(w.edges)
	w.central = hbverify.NewPipeline(n, w.edges)
	w.fleet = hbverify.NewPipeline(n, w.edges)
	for _, r := range n.Routers() {
		r.FIB.OnChange(func(fib.Update) { w.fibUpdates++ })
	}
	// The first full verification on both: every walk executes, the fleet
	// is built and labelled.
	if err := w.reverify(nil, ""); err != nil {
		return fmt.Errorf("first verification: %w", err)
	}
	for w.done < w.warmup {
		if _, _, err := w.update(nil); err != nil {
			return fmt.Errorf("warm-up update %d: %w", w.done, err)
		}
	}
	return nil
}

func (w *churnReverify) run(rec *recorder) error {
	for w.done < len(w.plan) {
		link, d, err := w.update(rec.tr)
		if link {
			rec.check(&rec.heavy, d, err)
		} else {
			rec.check(&rec.op, d, err)
		}
		if err == nil {
			rec.units++
		}
	}
	return nil
}

// update applies the next scheduled write and re-verifies on both
// pipelines.
func (w *churnReverify) update(tr *tracer) (link bool, elapsed time.Duration, err error) {
	u := w.plan[w.done]
	w.done++
	class := "static"
	if u.link {
		class = "link"
	}
	w.fibUpdates = 0
	events := w.net.Log.TotalAppended()
	start := time.Now()
	tr.beginOp()
	tr.span("update/"+class, func() {
		if u.link {
			tr.span("network.converge", func() {
				if _, err = w.net.SetLinkUp(u.a, u.b, u.on); err == nil {
					err = w.net.Run()
				}
			})
		} else {
			tr.span("fib.flip", func() {
				t := w.net.Router(u.a).FIB
				if u.on {
					t.Offer(churnStatic)
				} else {
					t.Withdraw(route.ProtoStatic, churnStatic.Prefix)
				}
			})
		}
		if err == nil {
			err = w.reverify(tr, class)
		}
	})
	elapsed = time.Since(start)
	w.tally["fib.updates_"+class] += int64(w.fibUpdates)
	w.tally["updates_"+class]++
	if u.link {
		w.tally["network.events_link"] += int64(w.net.Log.TotalAppended() - events)
	}
	// Nothing here reads the log back; keep it from growing without bound.
	if w.done%16 == 0 {
		w.net.Log.CompactBefore(w.net.Log.TotalAppended() + 1)
	}
	return u.link, elapsed, err
}

// reverify is one central verdict plus one fleet certificate.
func (w *churnReverify) reverify(tr *tracer, class string) error {
	tr.span("eqclass.Classes", func() { w.central.Classes() })
	var rep verify.Report
	tr.span("verify.Verify/"+class, func() { rep = w.central.Verify(w.policies) })
	w.tally["verify.walks"] += int64(rep.Walks)
	w.tally["verify.cached"] += int64(rep.Cached)
	if !rep.OK() || rep.Checked != w.checks {
		return fmt.Errorf("central verdict: %s, want ok (%d checks)", rep.Summary(), w.checks)
	}
	var stats dist.Stats
	var err error
	relabel := w.rounds%relabelEvery == 0
	name := "dist.VerifyLocalChecks/" + class
	if relabel {
		name = "dist.VerifyLocalChecks/relabel"
	}
	tr.span(name, func() { stats, err = w.fleet.VerifyLocalChecks(w.policies) })
	w.rounds++
	if err != nil {
		return fmt.Errorf("fleet round: %w", err)
	}
	if !stats.Report.OK() || stats.Report.Checked != w.checks {
		return fmt.Errorf("fleet certificate after update %d: %s, want ok (%d checks)", w.done-1, stats.Report.Summary(), w.checks)
	}
	if stats.Relabeled != relabel {
		return fmt.Errorf("fleet round %d: relabeled=%v, want %v", w.rounds-1, stats.Relabeled, relabel)
	}
	w.tally["localck.certified"] += int64(stats.LocalCertified)
	w.tally["localck.escalated"] += int64(stats.Escalated)
	w.tally["dist.bytes"] += int64(stats.Bytes)
	w.tally["dist.frames"] += int64(stats.Frames)
	return nil
}

func (w *churnReverify) counts() map[string]int64 {
	out := map[string]int64{"eqclass.resigned": w.central.Metrics.Counter("eqclass.resigned").Value()}
	for k, v := range w.tally {
		// Wire totals involve the fleet's goroutines: reported, not compared.
		if k != "dist.bytes" && k != "dist.frames" {
			out[k] = v
		}
	}
	return out
}

func (w *churnReverify) layers(rec *recorder, m map[string]float64) error {
	tr := rec.tr
	p50 := func(span string) float64 { return median(tr.durationsMs(span)) }
	statics, links := float64(w.tally["updates_static"]), float64(w.tally["updates_link"])
	rounds := float64(w.rounds)
	m["network.converge_ms_p50"] = p50("network.converge")
	m["network.events_per_op"] = float64(w.tally["network.events_link"]) / links
	m["fib.updates_per_static_flip"] = float64(w.tally["fib.updates_static"]) / statics
	m["fib.updates_per_link_flap"] = float64(w.tally["fib.updates_link"]) / links
	m["eqclass.update_ms_p50"] = p50("eqclass.Classes")
	m["eqclass.resigned_per_update"] = float64(w.central.Metrics.Counter("eqclass.resigned").Value()) / (statics + links)
	m["verify.delta_check_static_ms_p50"] = p50("verify.Verify/static")
	m["verify.delta_check_link_ms_p50"] = p50("verify.Verify/link")
	m["verify.walks_per_update"] = float64(w.tally["verify.walks"]) / rounds
	m["verify.cache_hit_ratio"] = float64(w.tally["verify.cached"]) / float64(w.tally["verify.cached"]+w.tally["verify.walks"])
	m["dist.local_round_static_ms_p50"] = p50("dist.VerifyLocalChecks/static")
	m["dist.local_round_link_ms_p50"] = p50("dist.VerifyLocalChecks/link")
	m["dist.relabel_round_ms_p50"] = p50("dist.VerifyLocalChecks/relabel")
	m["dist.wire_bytes_per_update"] = float64(w.tally["dist.bytes"]) / rounds
	m["dist.frames_per_update"] = float64(w.tally["dist.frames"]) / rounds
	m["localck.certified_per_round"] = float64(w.tally["localck.certified"]) / rounds
	m["localck.escalated_per_round"] = float64(w.tally["localck.escalated"]) / rounds
	m["trace.stage_sum_ratio"] = tr.stageSumRatio()
	return nil
}

func (w *churnReverify) close() {
	for _, p := range []*hbverify.Pipeline{w.central, w.fleet} {
		if p != nil {
			_ = p.Close() // Close only tears the fleet down and returns nil
		}
	}
}
