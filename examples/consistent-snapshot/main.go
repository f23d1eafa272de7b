// Fig. 1c end to end: a data-plane verifier that snapshots router FIBs at
// slightly different times sees a forwarding loop that never existed. The
// happens-before graph detects the inconsistent snapshot — R1's FIB change
// depends on an advertisement whose send event is missing from R2's
// collected log — and tells the verifier to wait for R2.
package main

import (
	"fmt"
	"log"
	"net/netip"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/hbg"
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
	ios := pn.Log.Snapshot()

	// The unlucky collection cut: R2's log stops just before its FIB
	// switched to the e2 uplink; everyone else is up to date.
	var fibSwitch capture.IO
	for _, io := range ios {
		if io.Router == "r2" && io.Type == capture.FIBInstall && io.Prefix == pn.P &&
			io.NextHop == netip.MustParseAddr("10.0.5.2") {
			fibSwitch = io
		}
	}
	cut := snapshot.Cut{"r2": fibSwitch.Time - 1}

	infer := func(ios []capture.IO) *hbg.Graph {
		return hbr.Rules{}.Infer(capture.StripOracle(ios))
	}

	// Naive verifier: walk the stale snapshot.
	collected := snapshot.Collect(ios, cut)
	fibs := snapshot.BuildFIBs(collected)
	w := dataplane.NewWalker(pn.Topo, dataplane.SnapshotView(fibs))
	rep := verify.NewChecker(w, []string{"r1", "r2", "r3"}).
		Check([]verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}})
	fmt.Println("naive snapshot verifier:", rep.Summary())
	for _, v := range rep.Violations {
		fmt.Println("  phantom:", v)
	}

	// HBG-gated verifier: detect the inconsistency, wait, verify cleanly.
	res := snapshot.Check(infer(collected), nil)
	fmt.Printf("consistency check: consistent=%v waitFor=%v\n", res.Consistent, res.WaitFor)

	consistent, _, final := snapshot.ConsistentCollect(ios, cut, infer, nil)
	fmt.Printf("after waiting: consistent=%v (%d I/Os collected)\n", final.Consistent, len(consistent))
	fibs2 := snapshot.BuildFIBs(consistent)
	w2 := dataplane.NewWalker(pn.Topo, dataplane.SnapshotView(fibs2))
	rep2 := verify.NewChecker(w2, []string{"r1", "r2", "r3"}).
		Check([]verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}})
	fmt.Println("HBG-gated verifier:", rep2.Summary())
}
