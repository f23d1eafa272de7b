// The §2 blocking hazard versus root-cause repair, side by side.
//
// Strategy A (what a pure data-plane verifier can do): block the bad FIB
// updates. The data plane stays compliant — until R2's uplink fails, the
// control plane (which believes the updates were installed) sees nothing
// to fix, and the stale data plane blackholes P.
//
// Strategy B (this paper): trace the violation to the configuration change
// and roll it back. The same uplink failure then fails over cleanly.
package main

import (
	"fmt"
	"log"
	"net/netip"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/network"
	"hbverify/internal/repair"
	"hbverify/internal/verify"
)

func buildNet() (*network.PaperNet, *repair.Gate) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		log.Fatal(err)
	}
	gate := repair.NewGate(pn.Network)
	pn.Start()
	if err := pn.Run(); err != nil {
		log.Fatal(err)
	}
	return pn, gate
}

func misconfigure(pn *network.PaperNet) {
	if _, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		log.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		log.Fatal(err)
	}
}

func failUplink(pn *network.PaperNet) {
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		log.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		log.Fatal(err)
	}
}

func report(label string, pn *network.PaperNet, gate *repair.Gate) {
	w := dataplane.NewWalker(pn.Topo, gate.View())
	bad := repair.BlackholedPrefixes(w, []string{"r1", "r2", "r3"}, []netip.Prefix{pn.P})
	walk := w.ForwardPrefix("r3", pn.P)
	fmt.Printf("%-22s blackholed=%d  r3 walk: %v\n", label, len(bad), walk)
}

func main() {
	rulesInfer := func(v capture.View) *hbg.Graph {
		return hbr.Rules{}.Infer(v.Stripped(nil))
	}

	fmt.Println("--- strategy A: block the problematic FIB updates ---")
	pnA, gateA := buildNet()
	gateA.SetBlock(func(router string, u fib.Update) bool {
		return u.Entry.Prefix == pnA.P && pnA.Internal(router)
	})
	misconfigure(pnA)
	report("after blocking:", pnA, gateA)
	failUplink(pnA)
	report("after uplink failure:", pnA, gateA)

	fmt.Println("--- strategy B: repair the root cause ---")
	pnB, gateB := buildNet() // gate observes but never blocks
	misconfigure(pnB)
	eng := repair.NewEngine(pnB.Network, rulesInfer, verify.NewChecker(pnB.LiveWalker(), []string{"r1", "r2", "r3"}).Check)
	d, err := eng.DetectAndRepair([]verify.Policy{{Kind: verify.Egress, Prefix: pnB.P, Expect: "e2"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("diagnosis:", d)
	if err := pnB.Run(); err != nil {
		log.Fatal(err)
	}
	report("after repair:", pnB, gateB)
	failUplink(pnB)
	report("after uplink failure:", pnB, gateB)
}
