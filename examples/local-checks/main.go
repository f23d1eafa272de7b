// The hybrid local-check loop (§5): the first round walks everything
// through the router fleet and derives per-router distance labels; later
// rounds let each node check its own FIB changes against its label slice,
// so a quiet round is certified without a single walk frame. A change that
// breaks a label escalates to targeted walks for just the affected
// forwarding classes — here the Fig. 2 misconfiguration.
package main

import (
	"fmt"
	"log"

	"hbverify"
	"hbverify/internal/config"
	"hbverify/internal/dist"
	"hbverify/internal/network"
	"hbverify/internal/verify"
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
	pipe := hbverify.NewPipeline(pn.Network, []string{"r1", "r2", "r3"})
	defer pipe.Close()
	policies := []verify.Policy{
		{Kind: verify.Reachable, Prefix: pn.P},
		{Kind: verify.NoLoop, Prefix: pn.P},
	}
	round := func(name string) dist.Stats {
		ls, err := pipe.VerifyLocalChecks(policies)
		if err != nil {
			log.Fatal(err)
		}
		mode := "local"
		if ls.Relabeled {
			mode = "relabel"
		}
		fmt.Printf("%s (%s): %s — %d certified, %d escalated; %d frames, %d bytes\n",
			name, mode, ls.Report.Summary(), ls.LocalCertified, ls.Escalated, ls.Frames, ls.Bytes)
		return ls
	}

	if ls := round("round 1"); !ls.Relabeled {
		log.Fatal("the first local-check round did not relabel")
	}
	for _, name := range []string{"round 2", "round 3"} {
		if ls := round(name); ls.Relabeled || ls.Escalated != 0 || !ls.Report.OK() {
			log.Fatalf("%s on a quiet network was not certified", name)
		}
	}

	// Fig. 2: LP 10 on R2's uplink, below R1's 20, moves every exit to R1.
	// Reachability still holds, but the changed FIBs break the labels the
	// quiet rounds were certified by, so their checks escalate to walks.
	if _, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		log.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		log.Fatal(err)
	}
	if ls := round("after the Fig. 2 change"); ls.Escalated == 0 {
		log.Fatal("the Fig. 2 change escalated nothing")
	}
}
