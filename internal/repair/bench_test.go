package repair

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/eqclass"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/verify"
)

// e12Table and e13Table gate each experiment's table to one print per
// process.
var e12Table, e13Table sync.Once

// converged builds the Fig. 1 network from seed and runs it to quiescence.
func converged(b *testing.B, seed int64, opt network.PaperOpts, prepare func(*network.PaperNet)) *network.PaperNet {
	b.Helper()
	pn, err := network.BuildPaper(seed, opt)
	if err != nil {
		b.Fatal(err)
	}
	if prepare != nil {
		prepare(pn)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		b.Fatal(err)
	}
	return pn
}

// BenchmarkEarlyPrediction is E12 — §6: predicting control-plane outcomes
// from equivalence classes, timing the held-out predictions. Run with
//
//	go test -run=NONE -bench=EarlyPrediction -benchtime=1x ./internal/repair
func BenchmarkEarlyPrediction(b *testing.B) {
	// Providers originate many prefixes in two policy groups: e1-only
	// (exits via r1) and e2-only (exits via r2). Train the predictor on
	// most prefixes, predict the held-out rest.
	const perGroup = 20
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE1, opt.AdvertiseE2 = false, false
	var groupE1, groupE2 []netip.Prefix
	for i := 0; i < perGroup; i++ {
		groupE1 = append(groupE1, route.MustPrefix(fmt.Sprintf("11.%d.0.0/24", i)))
		groupE2 = append(groupE2, route.MustPrefix(fmt.Sprintf("22.%d.0.0/24", i)))
	}
	pn := converged(b, 1, opt, func(pn *network.PaperNet) {
		pn.Router("e1").Cfg.BGP.Networks = groupE1
		pn.Router("e2").Cfg.BGP.Networks = groupE2
	})

	all := append(append([]netip.Prefix(nil), groupE1...), groupE2...)
	classes := eqclass.Compute(pn.Live(), all)
	signature := map[netip.Prefix]string{}
	for _, c := range classes {
		for _, p := range c.Prefixes {
			signature[p] = c.Signature
		}
	}

	// The trigger input for each prefix: the border's receive event.
	trigger := map[netip.Prefix]capture.IO{}
	for _, io := range pn.Log.Snapshot() {
		if io.Type == capture.RecvAdvert && (io.Router == "r1" || io.Router == "r2") &&
			(io.Peer == "e1" || io.Peer == "e2") {
			if _, have := trigger[io.Prefix]; !have {
				trigger[io.Prefix] = io
			}
		}
	}
	train, test := all[:len(all)-8], all[len(all)-8:]
	pred := NewOutcomePredictor()
	for _, p := range train {
		if in, ok := trigger[p]; ok {
			pred.Learn(in, signature[p])
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
		if sig == signature[p] {
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
	e12Table.Do(func() {
		fmt.Println("\n[E12/§6] outcome prediction from control-plane repetitiveness")
		fmt.Printf("  prefixes=%d classes=%d learned-signatures=%d\n", len(all), len(classes), pred.Len())
		fmt.Printf("  held-out predictions: %d/%d made, %d/%d correct\n", predicted, len(test), correct, predicted)
	})
}

// BenchmarkPreInstallGate is E13 (extension) — §8: pre-install verification
// keeps the data plane clean through the Fig. 2 misconfiguration, timing one
// gated run. Run with
//
//	go test -run=NONE -bench=PreInstallGate -benchtime=1x ./internal/repair
func BenchmarkPreInstallGate(b *testing.B) {
	sources := []string{"r1", "r2", "r3"}
	misconfigR2 := func(pn *network.PaperNet) {
		if _, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
		}); err != nil {
			b.Fatal(err)
		}
		if err := pn.Run(); err != nil {
			b.Fatal(err)
		}
	}
	runOnce := func() (withheld int, dpViolations int) {
		var pi *PreInstall
		var gate *Gate
		var policies []verify.Policy
		pn := converged(b, 1, network.DefaultPaperOpts(), func(pn *network.PaperNet) {
			gate = NewGate(pn.Network)
			policies = []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
			pi = NewPreInstall(pn.Network, gate, policies, sources)
		})
		misconfigR2(pn)
		w := dataplane.NewWalker(pn.Topo, gate.View())
		rep := verify.NewChecker(w, sources).Check(policies)
		return len(pi.WithheldUpdates()), len(rep.Violations)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.StopTimer()
	withheld, dpViol := runOnce()
	// Contrast: without the gate the data plane violates.
	pn := converged(b, 2, network.DefaultPaperOpts(), nil)
	misconfigR2(pn)
	ungated := verify.NewChecker(dataplane.NewWalker(pn.Topo, pn.Live()), sources).Check([]verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}})
	e13Table.Do(func() {
		fmt.Println("\n[E13/§8] verify-before-install: Fig. 2 misconfiguration")
		fmt.Printf("  %-28s %-22s %-18s\n", "mode", "data-plane violations", "updates withheld")
		fmt.Printf("  %-28s %-22d %-18s\n", "install-then-verify", len(ungated.Violations), "-")
		fmt.Printf("  %-28s %-22d %-18d\n", "verify-before-install (§8)", dpViol, withheld)
	})
}
