// What-if analysis (§8): before committing a change or to prepare for a
// failure, converge an emulated copy of the network from its blueprint,
// inject the hypothetical event, and let the verifier judge the would-be
// data plane. The live network is never touched.
package main

import (
	"fmt"
	"log"

	"hbverify/internal/config"
	"hbverify/internal/network"
	"hbverify/internal/verify"
	"hbverify/internal/whatif"
)

func main() {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		log.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		log.Fatal(err)
	}
	eng := &whatif.Engine{
		Sources: []string{"r1", "r2", "r3"},
		Policies: []verify.Policy{
			{Kind: verify.Reachable, Prefix: pn.P},
			{Kind: verify.NoLoop, Prefix: pn.P},
		},
	}
	bp := pn.Blueprint()

	// Q1: does losing R2's uplink strand traffic?
	res, err := eng.Ask(bp, whatif.LinkFailure("r2", "e2"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("what if r2-e2 fails?   baseline=%s  after=%s\n",
		res.Baseline.Summary(), res.Report.Summary())
	for _, d := range whatif.Diff(pn.Network, res.FIBs) {
		fmt.Println("   would change:", d)
	}

	// Q2: is the LP-10 change safe to commit?
	eng.Policies = []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	res, err = eng.Ask(bp, whatif.ConfigUpdate("r2", "lower uplink LP to 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}))
	if err != nil {
		log.Fatal(err)
	}
	verdict := "SAFE"
	if !res.OK() {
		verdict = "WOULD VIOLATE POLICY"
	}
	fmt.Printf("what if we set LP 10?  verdict: %s (%s)\n", verdict, res.Report.Summary())

	// The live network was never perturbed.
	live, _ := pn.Router("r3").FIB.Exact(pn.P)
	fmt.Printf("live r3 still forwards P via %v; r2 config history has %d version(s)\n",
		live.NextHop, len(pn.Store.History("r2")))
}
