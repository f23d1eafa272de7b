// Benchmark harness: one benchmark per paper artifact (the paper is a
// position paper with five figures and no tables; E6–E12 cover the
// quantitative claims made in prose). Each benchmark prints the rows or
// series the corresponding figure/claim reports — run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record.
package hbverify

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/ciscolog"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/dist"
	"hbverify/internal/eqclass"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/modelck"
	"hbverify/internal/netsim"
	"hbverify/internal/network"
	"hbverify/internal/repair"
	"hbverify/internal/route"
	"hbverify/internal/snapshot"
	"hbverify/internal/stream"
	"hbverify/internal/topology"
	"hbverify/internal/trie"
	"hbverify/internal/verify"
	"hbverify/internal/whatif"
)

// printOnce gates the human-readable result tables so repeated b.N
// calibration runs do not spam the output.
var printOnce sync.Map

func once(name string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fn()
	}
}

func mustPaper(b *testing.B, seed int64, opt network.PaperOpts) *network.PaperNet {
	b.Helper()
	pn, err := network.BuildPaper(seed, opt)
	if err != nil {
		b.Fatal(err)
	}
	return pn
}

func runNet(b *testing.B, pn *network.PaperNet) {
	b.Helper()
	pn.Start()
	if err := pn.Run(); err != nil {
		b.Fatal(err)
	}
}

func misconfigR2(b *testing.B, pn *network.PaperNet, lp uint32) capture.IO {
	b.Helper()
	io, err := pn.UpdateConfig("r2", fmt.Sprintf("set uplink local-pref %d", lp), func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		b.Fatal(err)
	}
	return io
}

var internalSources = []string{"r1", "r2", "r3"}

// ---------------------------------------------------------------------------
// E1 — Fig. 1a/1b: convergence of the running example.
// ---------------------------------------------------------------------------

func BenchmarkFig1Convergence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pn := mustPaper(b, 1, network.DefaultPaperOpts())
		runNet(b, pn)
	}
	b.StopTimer()
	pn := mustPaper(b, 1, network.DefaultPaperOpts())
	runNet(b, pn)
	once("fig1", func() {
		fmt.Println("\n[E1/Fig1] converged state (policy: prefer R2's uplink)")
		fmt.Printf("  %-4s %-28s %-14s\n", "rtr", "Loc-RIB best for P", "FIB next hop")
		for _, r := range internalSources {
			best := pn.Router(r).BGP.LocRIB()[pn.P]
			e, _ := pn.Router(r).FIB.Exact(pn.P)
			fmt.Printf("  %-4s lp=%-3d via %-16s %v\n", r, best.Attrs.EffectiveLocalPref(), best.NextHop, e.NextHop)
		}
		fmt.Printf("  converged at t=%v with %d control-plane I/Os\n", pn.Sched.Now(), pn.Log.Len())
	})
}

// ---------------------------------------------------------------------------
// E2 — Fig. 1c: snapshot consistency. Sweep collection cuts across the
// Fig. 1a -> 1b transition; count phantom loops under the naive verifier
// versus the HBG-gated verifier (plus the no-protocol-rules ablation).
// ---------------------------------------------------------------------------

func fig1Transition(b *testing.B, seed int64) (*network.PaperNet, []capture.IO) {
	b.Helper()
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE2 = false
	pn := mustPaper(b, seed, opt)
	runNet(b, pn)
	if _, err := pn.UpdateConfig("e2", "originate P", func(c *config.Router) {
		c.BGP.Networks = []netip.Prefix{network.PrefixP}
	}); err != nil {
		b.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		b.Fatal(err)
	}
	return pn, pn.Log.All()
}

func BenchmarkFig1cSnapshotConsistency(b *testing.B) {
	pn, ios := fig1Transition(b, 1)
	rules := func(x []capture.IO) *hbg.Graph { return hbr.Rules{}.Infer(capture.StripOracle(x)) }
	naiveInfer := func(x []capture.IO) *hbg.Graph { return hbr.Timestamp{}.Infer(capture.StripOracle(x)) }

	// Candidate cuts: every event boundary on r2 during the transition.
	var cuts []snapshot.Cut
	for _, io := range ios {
		if io.Router == "r2" && io.Prefix == pn.P {
			cuts = append(cuts, snapshot.Cut{"r2": io.Time - 1})
		}
	}
	policy := []verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}}
	type counts struct{ phantoms, waits, verified int }
	sweep := func(gated bool, infer snapshot.Infer) counts {
		var c counts
		for _, cut := range cuts {
			collected := snapshot.Collect(ios, cut)
			if gated {
				res := snapshot.Check(infer(collected), nil)
				if !res.Consistent {
					c.waits++
					collected, _, _ = snapshot.ConsistentCollect(ios, cut, infer, nil)
				}
			}
			fibs := snapshot.BuildFIBs(collected)
			w := dataplane.NewWalker(pn.Topo, dataplane.SnapshotView(fibs))
			rep := verify.NewChecker(w, internalSources).Check(policy)
			c.verified++
			if !rep.OK() {
				c.phantoms++
			}
		}
		return c
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(true, rules)
	}
	b.StopTimer()
	naive := sweep(false, nil)
	gated := sweep(true, rules)
	ablation := sweep(true, naiveInfer)
	// Can each inference settle on the *complete* log? The ablation never
	// can (timestamp chains have no cross-router send/recv edges), so it
	// would block verification forever.
	fullRules := snapshot.Check(rules(ios), nil).Consistent
	fullTS := snapshot.Check(naiveInfer(ios), nil).Consistent
	once("fig1c", func() {
		fmt.Println("\n[E2/Fig1c] phantom loops across", len(cuts), "staggered snapshot cuts")
		fmt.Printf("  %-34s %-9s %-7s %s\n", "snapshotter", "phantoms", "waits", "settles on full log?")
		fmt.Printf("  %-34s %-9d %-7s %s\n", "naive (no HBG)", naive.phantoms, "-", "n/a")
		fmt.Printf("  %-34s %-9d %-7d %v\n", "HBG-gated (rules)", gated.phantoms, gated.waits, fullRules)
		fmt.Printf("  %-34s %-9d %-7d %v   <- ablation\n", "HBG-gated (timestamp chains only)", ablation.phantoms, ablation.waits, fullTS)
	})
}

// ---------------------------------------------------------------------------
// E3 — Fig. 2: the local-pref misconfiguration and its detection.
// ---------------------------------------------------------------------------

func BenchmarkFig2Violation(b *testing.B) {
	b.ReportAllocs()
	var lastReport verify.Report
	for i := 0; i < b.N; i++ {
		pn := mustPaper(b, 1, network.DefaultPaperOpts())
		runNet(b, pn)
		misconfigR2(b, pn, 10)
		pipe := NewPipeline(pn.Network, internalSources)
		lastReport = pipe.Verify([]verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}})
	}
	b.StopTimer()
	once("fig2", func() {
		fmt.Println("\n[E3/Fig2] after LP-10 misconfiguration on r2:")
		fmt.Println("  ", lastReport.Summary())
		for _, v := range lastReport.Violations {
			fmt.Println("   ", v)
		}
	})
}

// ---------------------------------------------------------------------------
// E4 — Fig. 4: the happens-before graph of the Fig. 2 scenario.
// ---------------------------------------------------------------------------

func BenchmarkFig4HBG(b *testing.B) {
	pn := mustPaper(b, 1, network.DefaultPaperOpts())
	runNet(b, pn)
	mark := pn.Log.Len()
	cc := misconfigR2(b, pn, 10)
	slice := capture.StripOracle(pn.Log.All()[mark:])
	var g *hbg.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = hbr.Rules{}.Infer(slice)
	}
	b.StopTimer()
	var fault capture.IO
	for _, io := range pn.Log.All()[mark:] {
		if io.Router == "r1" && io.Type == capture.FIBInstall && io.Prefix == pn.P {
			fault = io
		}
	}
	roots := g.RootCauses(fault.ID)
	m := hbr.Evaluate(g, pn.Log.All()[mark:])
	once("fig4", func() {
		fmt.Println("\n[E4/Fig4] inferred HBG over the misconfiguration window")
		fmt.Printf("  vertices=%d edges=%d precision=%.2f recall=%.2f\n",
			g.NodeCount(), g.EdgeCount(), m.Precision, m.Recall)
		fmt.Println("  fault vertex:", fault)
		for _, r := range roots {
			match := ""
			if r.ID == cc.ID {
				match = "  (= the Fig. 4 root: R2 config change)"
			}
			fmt.Printf("  root cause: %v%s\n", r, match)
		}
		for _, io := range g.Provenance(fault.ID) {
			fmt.Println("    ", io)
		}
	})
}

// ---------------------------------------------------------------------------
// E5 — Fig. 5 / §7: feasibility timings through the IOS log pipeline.
// ---------------------------------------------------------------------------

func BenchmarkFig5Feasibility(b *testing.B) {
	pn := mustPaper(b, 1, network.DefaultPaperOpts())
	pn.SoftReconfigDelay = 25 * time.Second
	runNet(b, pn)
	mark := pn.Log.Len()
	if _, err := pn.UpdateConfig("r1", "neighbor localpref 200", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 200
	}); err != nil {
		b.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		b.Fatal(err)
	}
	interesting := pn.Log.All()[mark:]
	resolve := func(a netip.Addr) string { return pn.Topo.OwnerOf(a) }

	var parsed []capture.IO
	var g *hbg.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		parsed, err = ciscolog.RoundTrip(interesting, resolve)
		if err != nil {
			b.Fatal(err)
		}
		g = hbr.Rules{}.Infer(parsed)
	}
	b.StopTimer()

	pick := func(router string, typ capture.Type, after netsim.VirtualTime) capture.IO {
		for _, io := range parsed {
			if io.Router == router && io.Type == typ && io.Time >= after {
				return io
			}
		}
		return capture.IO{}
	}
	cc := pick("r1", capture.ConfigChange, 0)
	soft := pick("r1", capture.SoftReconfig, cc.Time)
	fibIO := pick("r1", capture.FIBInstall, soft.Time)
	send := pick("r1", capture.SendAdvert, soft.Time)
	r3recv := pick("r3", capture.RecvAdvert, soft.Time)
	r3fib := pick("r3", capture.FIBInstall, r3recv.Time)
	once("fig5", func() {
		fmt.Println("\n[E5/Fig5] feasibility timings (paper-measured vs ours), via IOS log round trip")
		fmt.Printf("  %-38s %-10s %-10s\n", "edge", "paper", "measured")
		fmt.Printf("  %-38s %-10s %-10v\n", "TTY config -> soft reconfiguration", "25s", soft.Time.Sub(cc.Time))
		fmt.Printf("  %-38s %-10s %-10v\n", "soft reconfig -> FIB install (r1)", "4ms", fibIO.Time.Sub(soft.Time))
		fmt.Printf("  %-38s %-10s %-10v\n", "FIB install -> advertisement (r1)", "4ms", send.Time.Sub(fibIO.Time))
		fmt.Printf("  %-38s %-10s %-10v\n", "advert propagation (r1 -> r3)", "8ms", r3recv.Time.Sub(send.Time))
		fmt.Printf("  %-38s %-10s %-10v\n", "recv -> FIB install (r3)", "<4ms", r3fib.Time.Sub(r3recv.Time))
		roots := g.RootCauses(r3fib.ID)
		for _, r := range roots {
			fmt.Println("  root cause from parsed logs:", r)
		}
	})
}

// ---------------------------------------------------------------------------
// E6 — §2: blocking hazard vs root-cause repair.
// ---------------------------------------------------------------------------

func BenchmarkBlockingHazard(b *testing.B) {
	rules := func(v capture.View) *hbg.Graph { return hbr.Rules{}.Infer(v.Stripped(nil)) }
	type row struct {
		strategy            string
		violBefore          int
		blackholesAfterFail int
	}
	runStrategy := func(block bool) row {
		pn := mustPaper(b, 1, network.DefaultPaperOpts())
		gate := repair.NewGate(pn.Network)
		runNet(b, pn)
		if block {
			gate.SetBlock(func(router string, u fib.Update) bool {
				return u.Entry.Prefix == pn.P && pn.Internal(router)
			})
		}
		misconfigR2(b, pn, 10)
		w := dataplane.NewWalker(pn.Topo, gate.View())
		policy := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
		before := verify.NewChecker(w, internalSources).Check(policy)
		if !block {
			eng := repair.NewEngine(pn.Network, rules, verify.NewChecker(pn.LiveWalker(), internalSources).Check)
			if _, err := eng.DetectAndRepair(policy); err != nil {
				b.Fatal(err)
			}
			if err := pn.Run(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
			b.Fatal(err)
		}
		if err := pn.Run(); err != nil {
			b.Fatal(err)
		}
		bad := repair.BlackholedPrefixes(w, internalSources, []netip.Prefix{pn.P})
		name := "root-cause repair"
		if block {
			name = "block FIB updates"
		}
		return row{strategy: name, violBefore: len(before.Violations), blackholesAfterFail: len(bad)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStrategy(true)
		runStrategy(false)
	}
	b.StopTimer()
	blocked := runStrategy(true)
	repaired := runStrategy(false)
	once("hazard", func() {
		fmt.Println("\n[E6/§2] blocking hazard: data-plane state after R2's uplink later fails")
		fmt.Printf("  %-20s %-26s %-24s\n", "strategy", "violations while mitigated", "blackholed prefixes after failure")
		fmt.Printf("  %-20s %-26d %-24d\n", blocked.strategy, blocked.violBefore, blocked.blackholesAfterFail)
		fmt.Printf("  %-20s %-26d %-24d\n", repaired.strategy, repaired.violBefore, repaired.blackholesAfterFail)
	})
}

// ---------------------------------------------------------------------------
// E7 — §6: forwarding equivalence classes vs prefix count.
// ---------------------------------------------------------------------------

func BenchmarkEquivalenceClasses(b *testing.B) {
	routers := []string{"r1", "r2", "r3", "r4", "r5"}
	sizes := []int{1000, 10000, 100000}
	groups := 12
	var rows []string
	for _, n := range sizes {
		fibs, prefixes := eqclass.SyntheticFIBs(routers, n, groups)
		start := time.Now()
		classes := eqclass.Compute(fibs, prefixes)
		rows = append(rows, fmt.Sprintf("  %-10d %-9d %-12v", n, len(classes), time.Since(start).Round(time.Millisecond)))
	}
	fibs, prefixes := eqclass.SyntheticFIBs(routers, 10000, groups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eqclass.Compute(fibs, prefixes)
	}
	b.StopTimer()
	once("eqclass", func() {
		fmt.Println("\n[E7/§6] forwarding equivalence classes (paper cites <15 classes at 100K prefixes)")
		fmt.Printf("  %-10s %-9s %-12s\n", "prefixes", "classes", "compute")
		for _, r := range rows {
			fmt.Println(r)
		}
	})
}

// ---------------------------------------------------------------------------
// E8 — §4.2: HBR inference strategies, precision/recall under clock skew.
// ---------------------------------------------------------------------------

func BenchmarkHBRInference(b *testing.B) {
	// Reference (policy-compliant) log for pattern training.
	refNet := mustPaper(b, 7, network.DefaultPaperOpts())
	runNet(b, refNet)
	ref := capture.StripOracle(refNet.Log.All())

	scenario := func(skew, jitter time.Duration) []capture.IO {
		opt := network.DefaultPaperOpts()
		opt.ClockSkew, opt.ClockJitter = skew, jitter
		pn := mustPaper(b, 1, opt)
		runNet(b, pn)
		misconfigR2(b, pn, 10)
		return pn.Log.All()
	}
	clean := scenario(0, 0)
	skewed := scenario(3*time.Millisecond, 2*time.Millisecond)

	strategies := hbr.Strategies(ref, 0)
	var rows []string
	for _, s := range strategies {
		mc := hbr.Evaluate(s.Infer(capture.StripOracle(clean)), clean)
		ms := hbr.Evaluate(s.Infer(capture.StripOracle(skewed)), skewed)
		rows = append(rows, fmt.Sprintf("  %-11s %6.2f %6.2f   %6.2f %6.2f",
			s.Name(), mc.Precision, mc.Recall, ms.Precision, ms.Recall))
	}
	stripped := capture.StripOracle(clean)
	rules := hbr.Rules{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules.Infer(stripped)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N * len(stripped))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
	once("hbrinf", func() {
		fmt.Println("\n[E8/§4.2] HBR inference accuracy (clean clocks | 3ms skew + 2ms jitter)")
		fmt.Printf("  %-11s %6s %6s   %6s %6s\n", "strategy", "prec", "rec", "prec", "rec")
		for _, r := range rows {
			fmt.Println(r)
		}
	})
}

// ---------------------------------------------------------------------------
// E9 — §5: centralized vs distributed verification.
// ---------------------------------------------------------------------------

func BenchmarkDistributedVerification(b *testing.B) {
	grids := []int{3, 5, 7}
	var rows []string
	for _, g := range grids {
		n, err := network.BuildGridOSPF(1, g, g)
		if err != nil {
			b.Fatal(err)
		}
		n.Start()
		if err := n.Run(); err != nil {
			b.Fatal(err)
		}
		corner := route.MustPrefix(fmt.Sprintf("9.%d.%d.1/32", g-1, g-1))
		policies := []verify.Policy{{Kind: verify.Reachable, Prefix: corner}}
		var sources []string
		tables := map[string]*fib.Table{}
		for _, r := range n.Routers() {
			sources = append(sources, r.Name)
			tables[r.Name] = r.FIB
		}
		// Centralized: walk locally over the assembled FIBs.
		startC := time.Now()
		w := dataplane.NewWalker(n.Topo, dataplane.TableView(tables))
		repC := verify.NewChecker(w, sources).Check(policies)
		centralTime := time.Since(startC)
		views := map[string]dist.LocalView{}
		for _, r := range n.Routers() {
			views[r.Name] = dist.LocalViewOf(r)
		}
		centralBytes, err := dist.CentralizedBytes(views)
		if err != nil {
			b.Fatal(err)
		}
		// Distributed: TCP fleet.
		coord, nodes, teardown, err := dist.BuildFleet(n, nil)
		if err != nil {
			b.Fatal(err)
		}
		startD := time.Now()
		stats, err := coord.Verify(nodes, policies, sources)
		distTime := time.Since(startD)
		teardown()
		if err != nil {
			b.Fatal(err)
		}
		if !repC.OK() || !stats.Report.OK() {
			b.Fatalf("grid %d: unexpected violations", g)
		}
		rows = append(rows, fmt.Sprintf("  %2dx%-2d %8v %10d %10v %9d %9d",
			g, g, centralTime.Round(time.Microsecond), centralBytes,
			distTime.Round(time.Microsecond), stats.Messages, stats.Bytes))
	}
	// Timed loop: distributed verification on the paper network.
	pn := mustPaper(b, 1, network.DefaultPaperOpts())
	runNet(b, pn)
	coord, nodes, teardown, err := dist.BuildFleet(pn.Network, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer teardown()
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Verify(nodes, policies, internalSources); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	once("dist", func() {
		fmt.Println("\n[E9/§5] centralized vs distributed verification (OSPF grids)")
		fmt.Printf("  %-5s %8s %10s %10s %9s %9s\n", "grid", "c.time", "c.bytes", "d.time", "d.msgs", "d.bytes")
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Println("  (distributed trades wall time for never shipping FIBs off-router)")
	})
}

// BenchmarkDistThroughput measures one verification round through the
// fleet transport (persistent connections, batched binary frames): a 5x5
// OSPF grid, one reachability policy from all 25 routers, no caching.
// Reports absolute walks/s and bytes/walk.
func BenchmarkDistThroughput(b *testing.B) {
	const g = 5
	n, err := network.BuildGridOSPF(1, g, g)
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		b.Fatal(err)
	}
	corner := route.MustPrefix(fmt.Sprintf("9.%d.%d.1/32", g-1, g-1))
	policies := []verify.Policy{{Kind: verify.Reachable, Prefix: corner}}
	var sources []string
	for _, r := range n.Routers() {
		sources = append(sources, r.Name)
	}
	coord, nodes, teardown, err := dist.BuildFleet(n, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer teardown()
	// Warm up once (the first round pays the dial costs).
	if _, err := coord.Verify(nodes, policies, sources); err != nil {
		b.Fatal(err)
	}
	var walks, bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := coord.Verify(nodes, policies, sources)
		if err != nil {
			b.Fatal(err)
		}
		if !stats.Report.OK() {
			b.Fatal("unexpected violations")
		}
		walks += stats.Walks
		bytes += stats.Bytes
	}
	b.ReportMetric(float64(walks)/b.Elapsed().Seconds(), "walks/s")
	b.ReportMetric(float64(bytes)/float64(walks), "bytes/walk")
}

// ---------------------------------------------------------------------------
// E10 — §8: BGP determinism with and without Add-Path.
// ---------------------------------------------------------------------------

func BenchmarkAddPathDeterminism(b *testing.B) {
	outcomes := func(addPath bool, quirks route.Quirks, seeds int) map[string]int {
		got := map[string]int{}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			opt := network.DefaultPaperOpts()
			opt.LPR1, opt.LPR2 = 20, 20 // tie: the tie-break decides
			opt.AddPath = addPath
			opt.Quirks = map[string]route.Quirks{"r1": quirks, "r2": quirks, "r3": quirks}
			pn := mustPaper(b, seed, opt)
			pn.BGPSessionJitter = 6 * time.Millisecond // message-order randomness
			runNet(b, pn)
			e, _ := pn.Router("r3").FIB.Exact(pn.P)
			got[e.NextHop.String()]++
		}
		return got
	}
	const seeds = 24
	quirky := outcomes(false, route.VendorB, seeds)  // prefer-oldest, best-only iBGP
	quirkyAP := outcomes(true, route.VendorB, seeds) // prefer-oldest + Add-Path
	canonical := outcomes(false, route.Quirks{}, seeds)
	canonicalAP := outcomes(true, route.Quirks{}, seeds)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := network.DefaultPaperOpts()
		opt.AddPath = true
		pn := mustPaper(b, 1, opt)
		runNet(b, pn)
	}
	b.StopTimer()
	once("addpath", func() {
		fmt.Println("\n[E10/§8] distinct r3 outcomes over", seeds, "message-order seeds (egress tie)")
		fmt.Printf("  %-34s %s\n", "configuration", "distinct outcomes")
		fmt.Printf("  %-34s %d %v\n", "prefer-oldest quirk, best-only", len(quirky), quirky)
		fmt.Printf("  %-34s %d %v\n", "prefer-oldest quirk, Add-Path", len(quirkyAP), quirkyAP)
		fmt.Printf("  %-34s %d %v\n", "canonical tie-break, best-only", len(canonical), canonical)
		fmt.Printf("  %-34s %d %v\n", "canonical tie-break, Add-Path", len(canonicalAP), canonicalAP)
		fmt.Println("  (determinism needs Add-Path visibility AND order-free tie-breaking)")
	})
}

// ---------------------------------------------------------------------------
// E11 — §1/§2: the model verifier's coverage gap under vendor quirks.
// ---------------------------------------------------------------------------

func BenchmarkModelCoverageGap(b *testing.B) {
	run := func(quirks route.Quirks, medE1, medE2 uint32) (mismatches int) {
		opt := network.DefaultPaperOpts()
		opt.LPR1, opt.LPR2 = 20, 20 // tie: MED handling decides
		opt.Quirks = map[string]route.Quirks{"r1": quirks, "r2": quirks, "r3": quirks}
		pn := mustPaper(b, 1, opt)
		// Providers attach MEDs via export policy (both the config and the
		// already-built session need the policy name).
		for name, med := range map[string]uint32{"e1": medE1, "e2": medE2} {
			r := pn.Router(name)
			r.Cfg.Policies = map[string]*config.Policy{
				"med": {Name: "med", Terms: []config.PolicyTerm{
					{Match: config.MatchAny, Action: config.ActionSetMED, Value: med},
				}},
			}
			r.Cfg.BGP.Neighbors[0].ExportPolicy = "med"
			r.BGP.Session(r.Cfg.BGP.Neighbors[0].Addr).ExportPolicy = "med"
		}
		runNet(b, pn)
		internal := func(n string) bool { return pn.Internal(n) }
		pred := modelck.Predict(pn.Network, internal, []netip.Prefix{pn.P})
		return len(modelck.Diff(pn.Network, pred))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(route.VendorA, 50, 5)
	}
	b.StopTimer()
	canonical := run(route.Quirks{}, 50, 5)
	vendorA := run(route.VendorA, 50, 5)
	once("modelgap", func() {
		fmt.Println("\n[E11/§2] canonical-model verifier vs actual control plane (MED tie scenario)")
		fmt.Printf("  %-34s %s\n", "router behaviour", "model mispredictions (of 3 routers)")
		fmt.Printf("  %-34s %d\n", "canonical (matches model)", canonical)
		fmt.Printf("  %-34s %d\n", "vendor quirk: always-compare-MED", vendorA)
		fmt.Println("  (the quirky network picks e2's low-MED route; the model predicts e1)")
	})
}

// ---------------------------------------------------------------------------
// E12 — §6: predicting control-plane outcomes from equivalence classes.
// ---------------------------------------------------------------------------

func BenchmarkEarlyPrediction(b *testing.B) {
	// Providers originate many prefixes in two policy groups: e1-only
	// (exits via r1) and e2-only (exits via r2). Train the predictor on
	// most prefixes, predict the held-out rest.
	const perGroup = 20
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE1, opt.AdvertiseE2 = false, false
	pn := mustPaper(b, 1, opt)
	var groupE1, groupE2 []netip.Prefix
	for i := 0; i < perGroup; i++ {
		groupE1 = append(groupE1, route.MustPrefix(fmt.Sprintf("11.%d.0.0/24", i)))
		groupE2 = append(groupE2, route.MustPrefix(fmt.Sprintf("22.%d.0.0/24", i)))
	}
	pn.Router("e1").Cfg.BGP.Networks = groupE1
	pn.Router("e2").Cfg.BGP.Networks = groupE2
	runNet(b, pn)

	fibs := pn.FIBSnapshot()
	classes := eqclass.Compute(fibs, append(append([]netip.Prefix(nil), groupE1...), groupE2...))

	// The trigger input for each prefix: the border's receive event.
	trigger := map[netip.Prefix]capture.IO{}
	for _, io := range pn.Log.All() {
		if io.Type == capture.RecvAdvert && (io.Router == "r1" || io.Router == "r2") &&
			(io.Peer == "e1" || io.Peer == "e2") {
			if _, have := trigger[io.Prefix]; !have {
				trigger[io.Prefix] = io
			}
		}
	}
	all := append(append([]netip.Prefix(nil), groupE1...), groupE2...)
	train, test := all[:len(all)-8], all[len(all)-8:]
	pred := repair.NewOutcomePredictor()
	for _, p := range train {
		if in, ok := trigger[p]; ok {
			pred.Learn(in, eqclass.Signature(fibs, p))
		}
	}
	correct, predicted := 0, 0
	for _, p := range test {
		in, ok := trigger[p]
		if !ok {
			continue
		}
		sig, ok := pred.Predict(in)
		if !ok {
			continue
		}
		predicted++
		if sig == eqclass.Signature(fibs, p) {
			correct++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range test {
			if in, ok := trigger[p]; ok {
				pred.Predict(in)
			}
		}
	}
	b.StopTimer()
	once("predict", func() {
		fmt.Println("\n[E12/§6] outcome prediction from control-plane repetitiveness")
		fmt.Printf("  prefixes=%d classes=%d learned-signatures=%d\n", len(all), len(classes), pred.Len())
		fmt.Printf("  held-out predictions: %d/%d made, %d/%d correct\n", predicted, len(test), correct, predicted)
	})
}

// ---------------------------------------------------------------------------
// E13 (extension) — §8: pre-install verification keeps the data plane
// clean through the Fig. 2 misconfiguration.
// ---------------------------------------------------------------------------

func BenchmarkPreInstallGate(b *testing.B) {
	runOnce := func() (withheld int, dpViolations int) {
		pn := mustPaper(b, 1, network.DefaultPaperOpts())
		gate := repair.NewGate(pn.Network)
		policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
		pi := repair.NewPreInstall(pn.Network, gate, policies, internalSources)
		runNet(b, pn)
		misconfigR2(b, pn, 10)
		w := dataplane.NewWalker(pn.Topo, gate.View())
		rep := verify.NewChecker(w, internalSources).Check(policies)
		return len(pi.WithheldUpdates()), len(rep.Violations)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.StopTimer()
	withheld, dpViol := runOnce()
	// Contrast: without the gate the data plane violates.
	pn := mustPaper(b, 2, network.DefaultPaperOpts())
	runNet(b, pn)
	misconfigR2(b, pn, 10)
	pipe := NewPipeline(pn.Network, internalSources)
	ungated := pipe.Verify([]verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}})
	once("preinstall", func() {
		fmt.Println("\n[E13/§8] verify-before-install: Fig. 2 misconfiguration")
		fmt.Printf("  %-28s %-22s %-18s\n", "mode", "data-plane violations", "updates withheld")
		fmt.Printf("  %-28s %-22d %-18s\n", "install-then-verify", len(ungated.Violations), "-")
		fmt.Printf("  %-28s %-22d %-18d\n", "verify-before-install (§8)", dpViol, withheld)
	})
}

// ---------------------------------------------------------------------------
// E14 (extension) — §8: what-if analysis on an emulated copy.
// ---------------------------------------------------------------------------

func BenchmarkWhatIf(b *testing.B) {
	pn := mustPaper(b, 1, network.DefaultPaperOpts())
	runNet(b, pn)
	bp := pn.Blueprint()
	eng := &whatif.Engine{Seed: 99, Sources: internalSources, Policies: []verify.Policy{
		{Kind: verify.Reachable, Prefix: pn.P},
		{Kind: verify.NoLoop, Prefix: pn.P},
	}}
	var failRes, doubleRes whatif.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		failRes, err = eng.Ask(bp, whatif.LinkFailure("r2", "e2"))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	doubleRes, err = eng.Ask(bp, whatif.LinkFailure("r2", "e2"), whatif.LinkFailure("r1", "e1"))
	if err != nil {
		b.Fatal(err)
	}
	egressEng := &whatif.Engine{Seed: 99, Sources: internalSources, Policies: []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
	}}
	cfgRes, err := egressEng.Ask(bp, whatif.ConfigUpdate("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}))
	if err != nil {
		b.Fatal(err)
	}
	once("whatif", func() {
		fmt.Println("\n[E14/§8] what-if on an emulated copy (live network untouched)")
		fmt.Printf("  %-32s %-10s %s\n", "hypothetical", "verdict", "report")
		fmt.Printf("  %-32s %-10v %s\n", "r2-e2 uplink fails", failRes.OK(), failRes.Report.Summary())
		fmt.Printf("  %-32s %-10v %s\n", "both uplinks fail", doubleRes.OK(), doubleRes.Report.Summary())
		fmt.Printf("  %-32s %-10v %s\n", "commit LP-10 on r2", cfgRes.OK(), cfgRes.Report.Summary())
	})
}

// BenchmarkIncrementalReVerify measures the tentpole optimization of the
// incremental HBG inference: on a Fig. 5-scale log grown by one more
// convergence round (a few percent of the I/Os), re-inferring through
// hbr.Incremental touches only the new suffix plus the bounded look-back
// window, versus re-matching the whole log from scratch.
func BenchmarkIncrementalReVerify(b *testing.B) {
	pn := mustPaper(b, 1, network.DefaultPaperOpts())
	runNet(b, pn)
	lp := uint32(10)
	churn := func() {
		if _, err := pn.UpdateConfig("r2", "toggle uplink local-pref", func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
		}); err != nil {
			b.Fatal(err)
		}
		lp = 310 - lp
		if err := pn.Run(); err != nil {
			b.Fatal(err)
		}
		// Idle virtual time between rounds so the total span dwarfs the
		// 60 s config look-back window, as in a real deployment. The clock
		// only advances through events, so schedule a no-op marker.
		pn.Sched.After(90*time.Second, func() {})
		if err := pn.Run(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		churn()
	}
	base := capture.StripOracle(pn.Log.All())
	churn()
	grown := capture.StripOracle(pn.Log.All())
	tail := len(grown) - len(base)

	rules := hbr.Rules{}
	// Cost of the from-scratch alternative.
	const fullRuns = 5
	fullStart := time.Now()
	for i := 0; i < fullRuns; i++ {
		rules.Infer(grown)
	}
	fullPer := time.Since(fullStart) / fullRuns

	var incTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc := hbr.NewIncremental(rules, nil)
		inc.Infer(base) // prime the cache on the pre-growth log
		b.StartTimer()
		t0 := time.Now()
		inc.Infer(grown)
		incTotal += time.Since(t0)
	}
	b.StopTimer()
	incPer := incTotal / time.Duration(b.N)
	speedup := float64(fullPer) / float64(incPer)
	once("increverify", func() {
		fmt.Println("\n[tentpole] incremental re-inference after log growth")
		fmt.Printf("  log: %d I/Os, tail %d I/Os (%.1f%%)\n",
			len(grown), tail, 100*float64(tail)/float64(len(grown)))
		fmt.Printf("  full re-inference:        %v\n", fullPer)
		fmt.Printf("  incremental re-inference: %v (%.1fx speedup)\n", incPer, speedup)
	})
	if speedup < 10 {
		b.Errorf("incremental speedup %.1fx, want >= 10x (full %v vs incremental %v)", speedup, fullPer, incPer)
	}
}

// BenchmarkDeltaVerify measures the PR 3 tentpole: one verification tick
// after a single-prefix FIB change at 100K prefixes. The full path
// recomputes every equivalence class and re-walks every (source, class)
// pair; the delta path re-signs only the churned prefix through
// eqclass.Incremental and re-executes only the walks the touched router
// invalidated. Run as sub-benchmarks for ns/op and allocs/op, plus a
// hand-measured comparison persisted to BENCH_delta.json.
func BenchmarkDeltaVerify(b *testing.B) {
	routers := []string{"r1", "r2", "r3", "r4", "r5"}
	const nPrefixes, nGroups = 100_000, 12
	fibs, prefixes := eqclass.SyntheticFIBs(routers, nPrefixes, nGroups)

	// A minimal topology so the checker walks real (if short) paths; the
	// synthetic next hops resolve nowhere, which keeps walk cost flat and
	// the classification cost dominant — the regime §6 describes.
	topo := topology.New()
	for i, r := range routers {
		if _, err := topo.AddRouter(r, netip.AddrFrom4([4]byte{1, 1, 1, byte(i + 1)})); err != nil {
			b.Fatal(err)
		}
	}
	tries := map[string]*trie.Trie[fib.Entry]{}
	for r, table := range fibs {
		tr := trie.New[fib.Entry]()
		for p, e := range table {
			tr.Insert(p, e)
		}
		tries[r] = tr
	}
	view := func(router string, dst netip.Addr) (fib.Entry, bool) {
		t := tries[router]
		if t == nil {
			return fib.Entry{}, false
		}
		e, _, ok := t.Lookup(dst)
		return e, ok
	}
	walker := dataplane.NewWalker(topo, view)

	// One reachability policy per class representative, checked from every
	// router — the per-class verification §6 makes tractable.
	var policies []verify.Policy
	for _, rep := range eqclass.Representatives(eqclass.Compute(fibs, prefixes)) {
		policies = append(policies, verify.Policy{Kind: verify.Reachable, Prefix: rep})
	}

	inc := eqclass.NewIncremental(nil)
	for r, table := range fibs {
		inc.Seed(r, table)
	}
	inc.Update() // absorb the seed re-sign outside the timed region
	cache := verify.NewWalkCache()
	cached := verify.NewChecker(walker, routers)
	cached.Workers = 1
	cached.Cache = cache
	cold := verify.NewChecker(walker, routers)
	cold.Workers = 1

	// flip alternates one /24's next hop at r1, updating the ground-truth
	// maps, the walker's tries, and the delta classifier's feed.
	churn := prefixes[0]
	hops := [2]netip.Addr{netip.MustParseAddr("203.0.113.77"), netip.MustParseAddr("203.0.113.78")}
	flip := func(i int) {
		e := fib.Entry{Prefix: churn, NextHop: hops[i%2]}
		fibs["r1"][churn] = e
		tries["r1"].Insert(churn, e)
		inc.Note("r1", fib.Update{Entry: e, Install: true})
	}
	fullTick := func() {
		eqclass.Compute(fibs, nil)
		cold.Check(policies)
	}
	deltaTick := func() {
		inc.Update()
		cache.InvalidateRouter("r1")
		cached.Check(policies)
	}

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flip(i)
			fullTick()
		}
	})
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flip(i)
			deltaTick()
		}
	})

	// Hand-rolled comparison (time + mallocs) for the artifact and the
	// acceptance assertion, independent of b.N calibration.
	measure := func(tick func(), n int) (nsPerOp, allocsPerOp float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			flip(i)
			tick()
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		return float64(elapsed.Nanoseconds()) / float64(n),
			float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	deltaNs, deltaAllocs := measure(deltaTick, 200)
	fullNs, fullAllocs := measure(fullTick, 3)
	speedup := fullNs / deltaNs
	allocCut := fullAllocs / deltaAllocs
	once("deltaverify", func() {
		fmt.Println("\n[tentpole/PR3] single-prefix churn tick at 100K prefixes, 12 groups, 5 routers")
		fmt.Printf("  full  (Compute + cold Check):   %11.0f ns/op  %9.0f allocs/op\n", fullNs, fullAllocs)
		fmt.Printf("  delta (Update + cached Check):  %11.0f ns/op  %9.0f allocs/op\n", deltaNs, deltaAllocs)
		fmt.Printf("  speedup %.0fx, allocation reduction %.0fx\n", speedup, allocCut)
		artifact, _ := json.MarshalIndent(map[string]interface{}{
			"benchmark": "BenchmarkDeltaVerify",
			"prefixes":  nPrefixes, "groups": nGroups, "routers": len(routers),
			"full_ns_per_op": fullNs, "full_allocs_per_op": fullAllocs,
			"delta_ns_per_op": deltaNs, "delta_allocs_per_op": deltaAllocs,
			"speedup": speedup, "alloc_reduction": allocCut,
		}, "", "  ")
		if err := os.WriteFile("BENCH_delta.json", append(artifact, '\n'), 0o644); err != nil {
			fmt.Println("  (could not write BENCH_delta.json:", err, ")")
		}
	})
	if speedup < 10 {
		b.Errorf("delta speedup %.0fx, want >= 10x (full %.0fns vs delta %.0fns)", speedup, fullNs, deltaNs)
	}
	if allocCut < 10 {
		b.Errorf("delta allocation reduction %.0fx, want >= 10x (full %.0f vs delta %.0f allocs)", allocCut, fullAllocs, deltaAllocs)
	}
}

// BenchmarkSymbolicWalk measures the PR 7 tentpole: verifying one
// forwarding equivalence class with a single symbolic DAG walk instead of
// one concrete probe per ECMP path combination. The topology is a
// three-stage Clos slice (12 routers, 4 per stage, full bipartite between
// stages, LAG width 4) carrying 100K prefixes in 12 classes; the baseline
// enumerates every concrete path (8–16 per class here) and aggregates,
// the symbolic walker explores the shared DAG once. Persisted to
// BENCH_ecmp.json; the acceptance floor requires >= 2x fewer walks per
// class than the probe baseline, with the shared exploration no slower.
func BenchmarkSymbolicWalk(b *testing.B) {
	const nPrefixes, nGroups, stageWidth, lagWidth = 100_000, 12, 4, 4

	topo := topology.New()
	stage := func(s, i int) string { return fmt.Sprintf("t%d-%d", s, i) }
	for s := 0; s < 3; s++ {
		for i := 0; i < stageWidth; i++ {
			if _, err := topo.AddRouter(stage(s, i), netip.AddrFrom4([4]byte{2, 0, byte(s), byte(i + 1)})); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Full bipartite links between consecutive stages; downAddr[s][i] holds
	// the peer addresses router t<s>-<i> forwards to (its stage-s+1 side).
	downAddr := [2][stageWidth][]netip.Addr{}
	for s := 0; s < 2; s++ {
		for i := 0; i < stageWidth; i++ {
			for j := 0; j < stageWidth; j++ {
				sub := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(20 + s), byte(i*stageWidth + j), 0}), 30)
				up := netip.AddrFrom4([4]byte{10, byte(20 + s), byte(i*stageWidth + j), 1})
				down := netip.AddrFrom4([4]byte{10, byte(20 + s), byte(i*stageWidth + j), 2})
				if _, err := topo.AddLink(topology.LinkSpec{
					ARouter: stage(s, i), AIface: "dn" + stage(s+1, j), AAddr: up,
					BRouter: stage(s+1, j), BIface: "up" + stage(s, i), BAddr: down,
					Prefix: sub,
				}); err != nil {
					b.Fatal(err)
				}
				downAddr[s][i] = append(downAddr[s][i], down)
			}
		}
	}
	// Every egress router owns the whole destination space as a stub LAN,
	// so the last stage delivers and the class structure lives entirely in
	// the middle stage's next-hop sets.
	dstSpace := netip.MustParsePrefix("100.0.0.0/6")
	for k := 0; k < stageWidth; k++ {
		if _, err := topo.AddStub(stage(2, k), "lan",
			netip.AddrFrom4([4]byte{100, 0, 0, byte(k + 1)}), dstSpace); err != nil {
			b.Fatal(err)
		}
	}

	// FIBs: ingress routers spray every prefix over the full LAG (width 4);
	// middle routers use a group-specific subset of their egress links,
	// which is what splits the 100K prefixes into 12 classes. The subsets
	// are distinct bitmasks (contiguous rotations alone would collapse: all
	// four width-4 rotations are the same set).
	masks := [nGroups]uint{
		0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100,
		0b0111, 0b1011, 0b1101, 0b1110, 0b1111, 0b0001,
	}
	fibs := map[string]map[netip.Prefix]fib.Entry{}
	tries := map[string]*trie.Trie[fib.Entry]{}
	for s := 0; s < 2; s++ {
		for i := 0; i < stageWidth; i++ {
			fibs[stage(s, i)] = map[netip.Prefix]fib.Entry{}
			tries[stage(s, i)] = trie.New[fib.Entry]()
		}
	}
	prefixes := make([]netip.Prefix, 0, nPrefixes)
	for i := 0; i < nPrefixes; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(100 + i>>16), byte(i >> 8), byte(i), 0}), 24)
		prefixes = append(prefixes, p)
		g := i % nGroups
		for ri := 0; ri < stageWidth; ri++ {
			in := route.CanonHops(downAddr[0][ri])
			eIn := fib.Entry{Prefix: p, NextHop: in[0], NextHops: in}
			fibs[stage(0, ri)][p] = eIn
			tries[stage(0, ri)].Insert(p, eIn)

			var mid []netip.Addr
			for j := 0; j < stageWidth; j++ {
				if masks[g]&(1<<uint(j)) != 0 {
					mid = append(mid, downAddr[1][ri][j])
				}
			}
			mid = route.CanonHops(mid)
			eMid := fib.Entry{Prefix: p, NextHop: mid[0]}
			if len(mid) > 1 {
				eMid.NextHops = mid
			}
			fibs[stage(1, ri)][p] = eMid
			tries[stage(1, ri)].Insert(p, eMid)
		}
	}
	view := func(router string, dst netip.Addr) (fib.Entry, bool) {
		tr := tries[router]
		if tr == nil {
			return fib.Entry{}, false
		}
		e, _, ok := tr.Lookup(dst)
		return e, ok
	}
	walker := dataplane.NewWalker(topo, view)

	classes := eqclass.Compute(fibs, prefixes)
	if len(classes) != nGroups {
		b.Fatalf("classes = %d, want %d", len(classes), nGroups)
	}
	reps := eqclass.Representatives(classes)

	// Sanity: the symbolic walk and the aggregated probes must agree on
	// every (source, class) pair before timing anything — the same
	// equivalence the scenario oracle pins continuously.
	const probeLimit = 256
	probeCount := 0
	for _, rep := range reps {
		dst := dataplane.Representative(rep)
		for i := 0; i < stageWidth; i++ {
			w := walker.Forward(stage(0, i), dst)
			probes := walker.ConcretePaths(stage(0, i), dst, probeLimit)
			probeCount += len(probes)
			walks := make([]dataplane.Walk, len(probes))
			for j, pw := range probes {
				walks[j] = pw.Walk
			}
			agg, _ := dataplane.AggregateProbes(walks)
			if agg != w.Outcome {
				b.Fatalf("%s->%v: symbolic %s vs probe aggregate %s", stage(0, i), dst, w.Outcome, agg)
			}
		}
	}

	symTick := func() {
		for _, rep := range reps {
			dst := dataplane.Representative(rep)
			for i := 0; i < stageWidth; i++ {
				_ = walker.Forward(stage(0, i), dst)
			}
		}
	}
	probeTick := func() {
		for _, rep := range reps {
			dst := dataplane.Representative(rep)
			for i := 0; i < stageWidth; i++ {
				probes := walker.ConcretePaths(stage(0, i), dst, probeLimit)
				walks := make([]dataplane.Walk, len(probes))
				for j, pw := range probes {
					walks[j] = pw.Walk
				}
				_, _ = dataplane.AggregateProbes(walks)
			}
		}
	}

	b.Run("symbolic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			symTick()
		}
	})
	b.Run("probes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			probeTick()
		}
	})

	measure := func(tick func(), n int) float64 {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tick()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	symNs := measure(symTick, 50)
	probeNs := measure(probeTick, 50)
	speedup := probeNs / symNs
	pairs := len(reps) * stageWidth
	walksPerClass := float64(probeCount) / float64(pairs)
	once("symbolicwalk", func() {
		fmt.Println("\n[tentpole/PR7] per-class symbolic walk vs concrete probe enumeration")
		fmt.Printf("  12 routers (3-stage Clos, LAG width %d), %d prefixes, %d classes, %d (src,class) pairs\n",
			lagWidth, nPrefixes, len(classes), pairs)
		fmt.Printf("  probes:   %11.0f ns/tick  (%.1f concrete walks per class)\n", probeNs, walksPerClass)
		fmt.Printf("  symbolic: %11.0f ns/tick  (1 DAG walk per class)\n", symNs)
		fmt.Printf("  speedup %.1fx\n", speedup)
		artifact, _ := json.MarshalIndent(map[string]interface{}{
			"benchmark": "BenchmarkSymbolicWalk",
			"prefixes":  nPrefixes, "routers": 3 * stageWidth, "lag_width": lagWidth,
			"classes": len(classes), "pairs": pairs,
			"probe_walks_per_class": walksPerClass, "symbolic_walks_per_class": 1,
			"probe_ns_per_tick": probeNs, "symbolic_ns_per_tick": symNs,
			"speedup": speedup,
		}, "", "  ")
		if err := os.WriteFile("BENCH_ecmp.json", append(artifact, '\n'), 0o644); err != nil {
			fmt.Println("  (could not write BENCH_ecmp.json:", err, ")")
		}
	})
	// Acceptance floor: the symbolic walker must cover each class in >= 2x
	// fewer walks than the per-probe baseline (it uses exactly 1), and the
	// walk sharing must not cost wall-clock time.
	if walksPerClass < 2 {
		b.Errorf("probe baseline enumerates %.1f walks/class vs 1 symbolic, want >= 2x fewer", walksPerClass)
	}
	if speedup < 1 {
		b.Errorf("symbolic tick slower than probe enumeration: %.0fns vs %.0fns", symNs, probeNs)
	}
}

// ---------------------------------------------------------------------------
// Tentpole PR5 — high-throughput HBR inference and zero-alloc ingestion.
// ---------------------------------------------------------------------------

// benchInferLog generates a deterministic synthetic capture log shaped
// like real churn: BGP/RIP/EIGRP update chains with RIB/FIB installs,
// prefix-less OSPF floods matched by Detail (with occasional duplicate
// sends so tie-breaking is exercised), link flaps, config edits, and soft
// reconfigs, spread over nRouters skewed clocks. Every event emits a
// parseable Cisco-style line, so the same log feeds both the inference
// and the ingestion measurements.
func benchInferLog(seed int64, n, nRouters int) []capture.IO {
	rng := rand.New(rand.NewSource(seed))
	routers := make([]string, nRouters)
	skew := make([]time.Duration, nRouters)
	for i := range routers {
		routers[i] = fmt.Sprintf("r%d", i)
		skew[i] = time.Duration(rng.Intn(401)-200) * time.Millisecond
	}
	prefixes := make([]netip.Prefix, 64)
	for i := range prefixes {
		prefixes[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/8, i%8*4))
	}
	protos := []route.Protocol{route.ProtoBGP, route.ProtoOSPF, route.ProtoRIP, route.ProtoEIGRP}

	out := make([]capture.IO, 0, n+8)
	id := uint64(1)
	base := netsim.VirtualTime(int64(time.Hour)) // keep skewed stamps positive
	add := func(r int, io capture.IO, dt time.Duration) {
		io.ID = id
		id++
		io.Router = routers[r]
		io.Time = base.Add(dt + skew[r])
		out = append(out, io)
	}
	for len(out) < n {
		base = base.Add(time.Duration(1+rng.Intn(5)) * time.Millisecond)
		a := rng.Intn(nRouters)
		peer := (a + 1) % nRouters
		switch rng.Intn(10) {
		case 0:
			add(a, capture.IO{Type: capture.ConfigChange, Detail: "policy edit"}, 0)
		case 1:
			up := capture.LinkUp
			if rng.Intn(2) == 0 {
				up = capture.LinkDown
			}
			add(a, capture.IO{Type: up, Peer: routers[peer], Detail: "eth0"}, 0)
		case 2:
			detail := fmt.Sprintf("LSA type 1 seq %d", rng.Intn(8))
			addr := netip.MustParseAddr(fmt.Sprintf("10.255.0.%d", a+1))
			add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[peer], PeerAddr: addr, Detail: detail}, 0)
			if rng.Intn(3) == 0 {
				add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[peer], PeerAddr: addr, Detail: detail},
					time.Duration(rng.Intn(20))*time.Millisecond)
			}
			add(peer, capture.IO{Type: capture.RecvAdvert, Proto: route.ProtoOSPF, Peer: routers[a], PeerAddr: addr, Detail: detail},
				time.Duration(rng.Intn(10))*time.Millisecond)
		default:
			proto := protos[rng.Intn(len(protos))]
			pfx := prefixes[rng.Intn(len(prefixes))]
			nh := netip.MustParseAddr(fmt.Sprintf("10.255.0.%d", a+1))
			kind, rkind := capture.SendAdvert, capture.RecvAdvert
			if rng.Intn(4) == 0 {
				kind, rkind = capture.SendWithdraw, capture.RecvWithdraw
			}
			add(a, capture.IO{Type: capture.RIBInstall, Proto: proto, Prefix: pfx, NextHop: nh}, 0)
			add(a, capture.IO{Type: capture.FIBInstall, Proto: proto, Prefix: pfx, NextHop: nh}, time.Millisecond)
			add(a, capture.IO{Type: kind, Proto: proto, Prefix: pfx, Peer: routers[peer], PeerAddr: nh}, 2*time.Millisecond)
			add(peer, capture.IO{Type: rkind, Proto: proto, Prefix: pfx, Peer: routers[a], PeerAddr: nh, NextHop: nh},
				2*time.Millisecond+time.Duration(rng.Intn(8))*time.Millisecond)
			if rng.Intn(8) == 0 {
				add(peer, capture.IO{Type: capture.SoftReconfig, Proto: route.ProtoBGP}, 3*time.Millisecond)
			}
		}
	}
	return out[:n]
}

// ---------------------------------------------------------------------------
// Tentpole PR6 — always-on streaming ingestion with bounded memory.
// ---------------------------------------------------------------------------

// soakEvents caps the soak size: `-soak.events=50000` is the CI smoke
// setting; the default is the full million-event soak the flat-memory
// claim is made over.
var soakEvents = flag.Int("soak.events", 1_000_000, "events to ingest in BenchmarkSoakIngest")

// BenchmarkSoakIngest — tentpole PR6: stream a synthetic router fleet's
// Cisco-style logs through the always-on daemon and measure the live heap
// with windowed compaction on versus off. The flat-memory claim is
// enforced here: after the full soak, the compacting daemon's post-GC
// heap must stay within 2x its steady-state watermark (sampled by an
// identical run over a quarter of the events), while the unbounded daemon
// retains the entire log and its heap grows with it. Persisted to
// BENCH_soak.json.
func BenchmarkSoakIngest(b *testing.B) {
	target := *soakEvents
	if target < 4_000 {
		b.Fatalf("-soak.events=%d is too small to reach the compaction steady state", target)
	}
	// Tight rule windows keep the retention floor (look-back + 2x skew
	// slack) at ~1.3s of virtual time — a constant-size window over an
	// arbitrarily long stream, which is the property under test.
	strategy := hbr.Rules{Window: 100 * time.Millisecond, ConfigWindow: 500 * time.Millisecond,
		CrossWindow: 100 * time.Millisecond}
	const compactEvery = 4096

	type soakRes struct {
		events      uint64
		window      int
		compactions int64
		heapBytes   uint64
		elapsed     time.Duration
	}
	run := func(events int, every uint64) soakRes {
		f := stream.Fleet{Routers: 8}
		f.Waves = (events + f.EventsPerWave() - 1) / f.EventsPerWave()
		reg := metrics.NewRegistry()
		d, err := stream.New(stream.Options{Strategy: strategy, Metrics: reg,
			Resolve: f.Resolver(), CompactEvery: every})
		if err != nil {
			b.Fatal(err)
		}
		streams := make([]*stream.Stream, f.Routers)
		for i := range streams {
			streams[i] = d.Register(f.RouterName(i))
		}
		start := time.Now()
		var wg sync.WaitGroup
		for i := range streams {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				streams[i].Consume(f.Reader(i))
			}()
		}
		wg.Wait()
		if err := d.Wait(); err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		// Post-GC heap while the daemon (log window + folded graph) is the
		// only thing this run keeps alive.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return soakRes{events: d.Log().TotalAppended(), window: d.Log().Len(),
			compactions: reg.Counter("stream.compactions").Value(),
			heapBytes:   ms.HeapAlloc, elapsed: elapsed}
	}

	steady := run(target/4, compactEvery)
	var full soakRes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full = run(target, compactEvery)
	}
	b.StopTimer()
	offQuarter := run(target/4, 0)
	offFull := run(target, 0)

	mb := func(v uint64) float64 { return float64(v) / (1 << 20) }
	ratio := float64(full.heapBytes) / float64(steady.heapBytes)
	growth := float64(offFull.heapBytes) / float64(offQuarter.heapBytes)
	eventsPerSec := float64(full.events) / full.elapsed.Seconds()
	b.ReportMetric(eventsPerSec, "events/sec")
	b.ReportMetric(mb(full.heapBytes), "heapMB")

	once("soakingest", func() {
		fmt.Printf("\n[tentpole/PR6] always-on soak: %d events, 8 routers, compact every %d\n",
			full.events, compactEvery)
		fmt.Printf("  compaction on:  %8.1f MB heap after %8d events (steady-state %8.1f MB at %d; %.2fx)\n",
			mb(full.heapBytes), full.events, mb(steady.heapBytes), steady.events, ratio)
		fmt.Printf("  compaction off: %8.1f MB heap after %8d events (%8.1f MB at %d; %.2fx growth)\n",
			mb(offFull.heapBytes), offFull.events, mb(offQuarter.heapBytes), offQuarter.events, growth)
		fmt.Printf("  window: %d of %d events retained, %d compactions, %.0f events/sec ingested\n",
			full.window, full.events, full.compactions, eventsPerSec)
		artifact, _ := json.MarshalIndent(map[string]interface{}{
			"benchmark": "BenchmarkSoakIngest",
			"events":    full.events, "routers": 8, "compact_every": compactEvery,
			"steady_heap_bytes": steady.heapBytes, "final_heap_bytes": full.heapBytes,
			"heap_ratio": ratio, "window_events": full.window, "compactions": full.compactions,
			"events_per_sec":               eventsPerSec,
			"unbounded_quarter_heap_bytes": offQuarter.heapBytes,
			"unbounded_final_heap_bytes":   offFull.heapBytes, "unbounded_growth": growth,
		}, "", "  ")
		if err := os.WriteFile("BENCH_soak.json", append(artifact, '\n'), 0o644); err != nil {
			fmt.Println("  (could not write BENCH_soak.json:", err, ")")
		}
	})
	if full.compactions == 0 {
		b.Error("soak never compacted; the flat-memory claim is vacuous")
	}
	if full.window*2 > int(full.events) {
		b.Errorf("compaction retained %d of %d events; the window is not bounded", full.window, full.events)
	}
	if ratio > 2 {
		b.Errorf("soak heap grew to %.2fx the steady-state watermark, want <= 2x (%.1f MB vs %.1f MB)",
			ratio, mb(full.heapBytes), mb(steady.heapBytes))
	}
	if offFull.window != int(offFull.events) {
		b.Errorf("unbounded control dropped events: window %d of %d", offFull.window, offFull.events)
	}
}

// ---------------------------------------------------------------------------
// Tentpole PR8 — scale: timer wheel, compressed trie, interned attributes.
// ---------------------------------------------------------------------------

// scaleK and scalePrefixCount size BenchmarkScaleConvergence. The defaults
// are the acceptance size (fat-tree k=16, 320 routers; 500K prefixes through
// the route-reflector tiers); the CI scale-smoke job runs -scale.k=8
// -scale.prefixes=50000.
var (
	scaleK           = flag.Int("scale.k", 16, "fat-tree arity in BenchmarkScaleConvergence")
	scalePrefixCount = flag.Int("scale.prefixes", 500_000,
		"prefixes announced through the route-reflector tiers in BenchmarkScaleConvergence")
)

// scaleRun is one converged simulation's vitals.
type scaleRun struct {
	routers      int
	events       uint64
	eventsPerSec float64
	rssPerRouter float64
	highWater    int
}

// drainToConvergence runs the network until the event queue empties,
// compacting the capture log between chunks so the post-run heap measures
// routing state (FIBs, tries, RIBs, LSDBs), not retained history. Returns
// the wall time spent firing events.
func drainToConvergence(b *testing.B, n *network.Network) time.Duration {
	b.Helper()
	n.Sched.MaxEvents = 1 << 62 // the scale runs legitimately exceed the 5M default
	start := time.Now()
	// Compaction is driven by retained count, not virtual time: BGP's
	// millisecond timers converge 500K prefixes inside a few hundred
	// virtual milliseconds, so any RunFor cadence would still buffer the
	// whole run (>2 GB of capture IOs) before the first compaction.
	var steps uint64
	for n.Sched.Step() {
		if steps++; steps&0xfff == 0 && n.Log.Len() > 1<<16 {
			n.Log.CompactBefore(n.Log.TotalAppended() + 1)
		}
	}
	n.Log.CompactBefore(n.Log.TotalAppended() + 1)
	return time.Since(start)
}

// BenchmarkScaleConvergence — tentpole PR8: the three hot-path
// optimizations at their target scale. Phase 1 converges a fat-tree
// (default k=16, 320 routers, 2048 links) under the wheel and heap
// scheduler kernels, recording convergence events/sec and post-GC heap per
// router. Phase 2 announces -scale.prefixes routes through the ISP
// route-reflector tiers and measures the interning ratio: bytes that
// per-speaker deep copies would have retained over bytes the canonical
// table actually retains (deterministic, unlike RSS at 500K prefixes).
// Phase 3 replays a scheduler-bound churn kernel workload — full
// simulations dilute the kernel with protocol work — at the larger of the
// measured high-water queue depth and 128K, where the heap pays its log-n
// pops and lazy dead-entry sweeps. Floors (intern ratio >= 5x, wheel >= 2x
// heap on churn events/sec) are enforced here and the whole record is
// persisted to BENCH_scale.json.
func BenchmarkScaleConvergence(b *testing.B) {
	runFatTree := func(b *testing.B, kern netsim.Kernel) (res scaleRun) {
		defer func(k netsim.Kernel) { netsim.DefaultKernel = k }(netsim.DefaultKernel)
		netsim.DefaultKernel = kern
		for i := 0; i < b.N; i++ {
			runtime.GC()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			n, err := network.BuildFatTree(1, *scaleK)
			if err != nil {
				b.Fatal(err)
			}
			n.Start()
			elapsed := drainToConvergence(b, n)
			runtime.GC()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			res = scaleRun{
				routers:      len(n.Routers()),
				events:       n.Sched.Processed,
				eventsPerSec: float64(n.Sched.Processed) / elapsed.Seconds(),
				rssPerRouter: float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(n.Routers())),
				highWater:    n.Sched.HighWater(),
			}
			b.ReportMetric(res.eventsPerSec, "events/sec")
			runtime.KeepAlive(n)
		}
		return res
	}

	runISP := func(b *testing.B) (res scaleRun, ratio float64, stats route.InternStats) {
		prefixes := network.ScalePrefixes(*scalePrefixCount)
		for i := 0; i < b.N; i++ {
			before := route.DefaultInterner.Stats()
			n, err := network.BuildISPRR(1, 2, 1, prefixes)
			if err != nil {
				b.Fatal(err)
			}
			n.Start()
			elapsed := drainToConvergence(b, n)
			// Convergence spot-check at the edge furthest from the origin.
			pe := n.Router("pe1-0")
			for _, p := range []netip.Prefix{prefixes[0], prefixes[len(prefixes)/2], prefixes[len(prefixes)-1]} {
				if _, ok := pe.FIB.Exact(p); !ok {
					b.Fatalf("pe1-0 missing %v after convergence", p)
				}
			}
			stats = route.DefaultInterner.Stats()
			dShared := stats.SharedBytes - before.SharedBytes
			dCanon := stats.CanonicalBytes - before.CanonicalBytes
			if dCanon < 1 {
				dCanon = 1 // attrs already canonical from an earlier benchmark
			}
			ratio = float64(dShared) / float64(dCanon)
			res = scaleRun{
				routers:      len(n.Routers()),
				events:       n.Sched.Processed,
				eventsPerSec: float64(n.Sched.Processed) / elapsed.Seconds(),
				highWater:    n.Sched.HighWater(),
			}
			b.ReportMetric(res.eventsPerSec, "events/sec")
			runtime.KeepAlive(n)
		}
		return res, ratio, stats
	}

	// runChurn replays the watchdog-churn workload: every tick cancels a
	// live far-future timer and rearms it, the access pattern protocol
	// retransmit timers produce. Closures are preallocated so the kernels'
	// schedule/cancel/pop costs dominate the measurement.
	runChurn := func(b *testing.B, kern netsim.Kernel, depth int) (eps float64) {
		const churnFires = 300_000
		noop := func() {}
		for i := 0; i < b.N; i++ {
			s := netsim.NewSchedulerKernel(1, kern)
			watchdogs := make([]*netsim.Timer, depth)
			ticks := make([]func(), 64)
			var fired, cursor int
			for j := range ticks {
				j := j
				ticks[j] = func() {
					c := cursor % depth
					cursor++
					if watchdogs[c] != nil {
						watchdogs[c].Stop()
					}
					watchdogs[c] = s.After(10*time.Second, noop)
					fired++
					if fired < churnFires {
						s.After(time.Duration(1+j%7)*time.Millisecond, ticks[j])
					}
				}
			}
			for j := range ticks {
				s.After(time.Duration(j%97)*time.Millisecond, ticks[j])
			}
			start := time.Now()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			eps = float64(s.Processed) / time.Since(start).Seconds()
			b.ReportMetric(eps, "events/sec")
		}
		return eps
	}

	var ftWheel, ftHeap, isp scaleRun
	var internRatio float64
	var internStats route.InternStats
	b.Run("fattree/wheel", func(b *testing.B) { ftWheel = runFatTree(b, netsim.KernelWheel) })
	b.Run("fattree/heap", func(b *testing.B) { ftHeap = runFatTree(b, netsim.KernelHeap) })
	b.Run("isp-rr", func(b *testing.B) { isp, internRatio, internStats = runISP(b) })
	depth := ftWheel.highWater
	if isp.highWater > depth {
		depth = isp.highWater
	}
	if depth < 1<<17 {
		depth = 1 << 17
	}
	var churnWheel, churnHeap float64
	b.Run("churn/wheel", func(b *testing.B) { churnWheel = runChurn(b, netsim.KernelWheel, depth) })
	b.Run("churn/heap", func(b *testing.B) { churnHeap = runChurn(b, netsim.KernelHeap, depth) })
	if ftWheel.eventsPerSec == 0 || ftHeap.eventsPerSec == 0 || isp.eventsPerSec == 0 ||
		churnWheel == 0 || churnHeap == 0 {
		return // sub-benchmarks filtered out
	}
	speedup := churnWheel / churnHeap

	once("scaleconvergence", func() {
		fmt.Printf("\n[tentpole/PR8] scale: fat-tree k=%d (%d routers) + %d prefixes through RR tiers\n",
			*scaleK, ftWheel.routers, *scalePrefixCount)
		fmt.Printf("  fat-tree OSPF convergence: wheel %9.0f events/sec, heap %9.0f events/sec (%d events)\n",
			ftWheel.eventsPerSec, ftHeap.eventsPerSec, ftWheel.events)
		fmt.Printf("  heap per router after convergence: %.2f MB\n", ftWheel.rssPerRouter/(1<<20))
		fmt.Printf("  ISP RR convergence: %d events, %9.0f events/sec, %d routers\n",
			isp.events, isp.eventsPerSec, isp.routers)
		fmt.Printf("  intern ratio %.1fx (deep-copy bytes over canonical; %d unique attr sets, %d live refs)\n",
			internRatio, internStats.Unique, internStats.LiveRefs)
		fmt.Printf("  kernel churn replay at depth %d: wheel %9.0f vs heap %9.0f events/sec => %.2fx\n",
			depth, churnWheel, churnHeap, speedup)
		artifact, _ := json.MarshalIndent(map[string]interface{}{
			"benchmark": "BenchmarkScaleConvergence",
			"fattree_k": *scaleK, "fattree_routers": ftWheel.routers,
			"fattree_events":               ftWheel.events,
			"fattree_wheel_events_per_sec": ftWheel.eventsPerSec,
			"fattree_heap_events_per_sec":  ftHeap.eventsPerSec,
			"fattree_rss_bytes_per_router": ftWheel.rssPerRouter,
			"isp_prefixes":                 *scalePrefixCount,
			"isp_routers":                  isp.routers,
			"isp_events":                   isp.events,
			"isp_events_per_sec":           isp.eventsPerSec,
			"intern_ratio":                 internRatio,
			"intern_unique":                internStats.Unique,
			"intern_live_refs":             internStats.LiveRefs,
			"churn_depth":                  depth,
			"churn_wheel_events_per_sec":   churnWheel,
			"churn_heap_events_per_sec":    churnHeap,
			"churn_speedup":                speedup,
			"floors":                       map[string]float64{"intern_ratio_min": 5, "churn_speedup_min": 2},
		}, "", "  ")
		if err := os.WriteFile("BENCH_scale.json", append(artifact, '\n'), 0o644); err != nil {
			fmt.Println("  (could not write BENCH_scale.json:", err, ")")
		}
	})
	if internRatio < 5 {
		b.Errorf("interning retains %.1fx fewer route-storage bytes than deep copies, want >= 5x", internRatio)
	}
	if speedup < 2 {
		b.Errorf("wheel kernel %.2fx heap on churn events/sec, want >= 2x (%.0f vs %.0f)",
			speedup, churnWheel, churnHeap)
	}
}
