// Benchmark harness: one benchmark per paper artifact (the paper is a
// position paper with five figures and no tables; E6–E14 cover the
// quantitative claims made in prose). Each benchmark prints the rows or
// series the corresponding figure/claim reports — run with
//
//	go test -run=NONE -bench=. -benchtime=1x . ./internal/ciscolog ./internal/eqclass ./internal/hbr ./internal/repair
//
// and see EXPERIMENTS.md for the paper-vs-measured record. This file holds
// E1–E4, E6, E9–E11 and E14. An experiment whose code no binary runs lives
// beside that code: E5 (the IOS log round trip) in internal/ciscolog, E7
// (synthetic FIBs) in internal/eqclass, E8 (the §4.2 baselines) in
// internal/hbr, and E12 (the outcome predictor) and E13 (the pre-install
// gate) in internal/repair.
package hbverify

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/dist"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/network"
	"hbverify/internal/repair"
	"hbverify/internal/route"
	"hbverify/internal/snapshot"
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
			// The Loc-RIB best is the last BGP route the router installed for P.
			var best capture.IO
			for _, io := range pn.Log.ForRouter(r) {
				if io.Type == capture.RIBInstall && io.Proto == route.ProtoBGP && io.Prefix == pn.P {
					best = io
				}
			}
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
	return pn, pn.Log.Snapshot()
}

func BenchmarkFig1cSnapshotConsistency(b *testing.B) {
	pn, ios := fig1Transition(b, 1)
	rules := func(x []capture.IO) *hbg.Graph { return hbr.Rules{}.Infer(capture.StripOracle(x)) }
	naiveInfer := timestampChains

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

// timestampChains is §4.2's timestamp baseline, E2's ablation: each event's
// one parent is the event before it on its router in observed order.
func timestampChains(ios []capture.IO) *hbg.Graph {
	ios = slices.Clone(ios)
	slices.SortStableFunc(ios, func(a, b capture.IO) int { return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.ID, b.ID)) })
	g := hbg.New()
	last := map[string]uint64{}
	for _, io := range ios {
		g.AddNode(io)
		if prev, ok := last[io.Router]; ok {
			g.AddEdge(prev, io.ID)
		}
		last[io.Router] = io.ID
	}
	return g
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
	slice := capture.StripOracle(pn.Log.Snapshot()[mark:])
	var g *hbg.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = hbr.Rules{}.Infer(slice)
	}
	b.StopTimer()
	var fault capture.IO
	for _, io := range pn.Log.Snapshot()[mark:] {
		if io.Router == "r1" && io.Type == capture.FIBInstall && io.Prefix == pn.P {
			fault = io
		}
	}
	roots := g.RootCauses(fault.ID)
	m := hbr.Evaluate(g, pn.Log.Snapshot()[mark:])
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

// E5 — Fig. 5 / §7's feasibility timings through the IOS log pipeline — is
// BenchmarkFig5Feasibility in internal/ciscolog, beside the log round trip.

// ---------------------------------------------------------------------------
// E6 — §2: blocking hazard vs root-cause repair.
// ---------------------------------------------------------------------------

func BenchmarkBlockingHazard(b *testing.B) {
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
			if _, err := NewPipeline(pn.Network, internalSources).DetectAndRepair(policy); err != nil {
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

// E7 — §6's forwarding equivalence classes vs prefix count — is
// BenchmarkEquivalenceClasses in internal/eqclass, beside its synthetic FIBs.

// E8 — §4.2's inference strategies under clock skew — is
// BenchmarkHBRInference in internal/hbr, beside the baselines it compares.

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
		for _, r := range n.Routers() {
			sources = append(sources, r.Name)
		}
		// Centralized: walk locally over the assembled FIBs.
		startC := time.Now()
		w := dataplane.NewWalker(n.Topo, n.Live())
		repC := verify.NewChecker(w, sources).Check(policies)
		centralTime := time.Since(startC)
		centralBytes, err := dist.CentralizedBytes(n.Live())
		if err != nil {
			b.Fatal(err)
		}
		// Distributed: TCP fleet.
		fleet, err := dist.NewFleet(n.Live(), nil)
		if err != nil {
			b.Fatal(err)
		}
		startD := time.Now()
		stats, err := fleet.Verify(verify.NewChecker(nil, sources), policies)
		distTime := time.Since(startD)
		fleet.Close()
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
	fleet, err := dist.NewFleet(pn.Live(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Verify(verify.NewChecker(nil, internalSources), policies); err != nil {
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
	fleet, err := dist.NewFleet(n.Live(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	// Warm up once (the first round pays the dial costs).
	if _, err := fleet.Verify(verify.NewChecker(nil, sources), policies); err != nil {
		b.Fatal(err)
	}
	var walks, bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := fleet.Verify(verify.NewChecker(nil, sources), policies)
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
		pred := modelPredict(pn.Network, pn.Internal, []netip.Prefix{pn.P})
		return len(modelDiff(pn.Network, pred))
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

// E12 — §6's outcome prediction — and E13 — §8's verify-before-install
// gate — are BenchmarkEarlyPrediction and BenchmarkPreInstallGate in
// internal/repair, beside the predictor and the gate they run.

// ---------------------------------------------------------------------------
// E14 (extension) — §8: what-if analysis on an emulated copy.
// ---------------------------------------------------------------------------

func BenchmarkWhatIf(b *testing.B) {
	pn := mustPaper(b, 1, network.DefaultPaperOpts())
	runNet(b, pn)
	bp := pn.Blueprint()
	eng := &whatif.Engine{Sources: internalSources, Policies: []verify.Policy{
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
	egressEng := &whatif.Engine{Sources: internalSources, Policies: []verify.Policy{
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
