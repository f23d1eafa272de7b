// Fig. 1c end to end: a data-plane verifier that snapshots router FIBs at
// slightly different times sees a forwarding loop that never existed.
// Message accounting judges the cut (snapshot.ConsistentCut over the
// channel pairing hbr.Pair computes): R1's FIB change follows a receive
// whose send — R2's advertisement — the cut does not collect, so the cut is
// open until R2's log advances, and the verifier waits for R2.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"sort"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/hbr"
	"hbverify/internal/network"
	"hbverify/internal/snapshot"
	"hbverify/internal/verify"
)

func main() {
	// Fig. 1a: only E1's route exists; then E2's route appears (Fig. 1b).
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE2 = false
	pn, err := network.BuildPaper(1, opt)
	if err != nil {
		log.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		log.Fatal(err)
	}
	if _, err := pn.UpdateConfig("e2", "originate P", func(c *config.Router) {
		c.BGP.Networks = []netip.Prefix{network.PrefixP}
	}); err != nil {
		log.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		log.Fatal(err)
	}
	v := pn.Log.View()

	// The unlucky collection cut: R2's log stops just before its FIB
	// switched to the e2 uplink; everyone else is up to date.
	var fibSwitch *capture.IO
	for i := 0; i < v.Len(); i++ {
		if io := v.At(i); io.Router == "r2" && io.Type == capture.FIBInstall && io.Prefix == pn.P &&
			io.NextHop == netip.MustParseAddr("10.0.5.2") {
			fibSwitch = io
		}
	}
	cut := snapshot.Cut{"r2": fibSwitch.Time - 1}
	noLoop := []verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}}
	verifyUnder := func(c snapshot.Cut) verify.Report {
		w := dataplane.NewWalker(pn.Topo, snapshot.ReplayState(pn.Topo, v, c))
		return verify.NewChecker(w, []string{"r1", "r2", "r3"}).Check(noLoop)
	}

	// Naive verifier: walk the stale snapshot.
	rep := verifyUnder(cut)
	fmt.Println("naive snapshot verifier:", rep.Summary())
	for _, viol := range rep.Violations {
		fmt.Println("  phantom:", viol)
	}

	// Gated verifier: close the cut by message accounting, then verify.
	final, res := snapshot.ConsistentCut(v, cut, hbr.Pair(v), nil)
	var waited []string
	for r, horizon := range cut {
		if h, limited := final[r]; !limited || h != horizon {
			waited = append(waited, r)
		}
	}
	collected := 0
	for i := 0; i < v.Len(); i++ {
		if final.Visible(v.At(i)) {
			collected++
		}
	}
	sort.Strings(waited)
	// A cut that needed no wait was consistent as collected.
	fmt.Printf("consistency check: consistent=%v, waited for %v (%d waits)\n", res.Consistent && res.Waits == 0, waited, res.Waits)
	fmt.Printf("after waiting: consistent=%v (%d I/Os collected)\n", res.Consistent, collected)
	fmt.Println("gated verifier:", verifyUnder(final).Summary())
}
