// Distributed verification (§5): every router runs a small TCP
// verification node holding only its own FIB and local link knowledge.
// Walks hop between nodes exactly as packets would hop between routers;
// the fleet only seeds walks and collects verdicts. No FIB ever
// leaves its router.
//
// One pipeline drives the fleet: a cold round (every walk travels), a warm
// central re-verify answered from the walk cache the fleet round filled, a
// quiet fleet round that puts nothing on the wire, and the Fig. 2
// misconfiguration found by the fleet after a round that ships only the
// changed routers' view deltas.
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
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
		{Kind: verify.Waypoint, Prefix: pn.P, Sources: []string{"r3"}, Expect: "r2"},
	}

	cold, err := pipe.VerifyDistributed(policies)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cold fleet round:", cold.Report.Summary())
	fmt.Printf("  cost: %d walks, %d inter-node messages, %d frames, %d bytes on the wire\n",
		cold.Walks, cold.Messages, cold.Frames, cold.Bytes)

	central, err := dist.CentralizedBytes(pn.Network)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("centralized alternative: ship %d bytes of FIB state every snapshot\n", central)

	warm := pipe.Verify(policies)
	fmt.Printf("warm central re-verify: %s (%d walks executed, %d cached)\n",
		warm.Summary(), warm.Walks, warm.Cached)

	quiet, err := pipe.VerifyDistributed(policies)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quiet fleet round: %d frames, %d bytes (%d walks cached)\n",
		quiet.Frames, quiet.Bytes, quiet.Report.Cached)
	if quiet.Frames != 0 {
		log.Fatalf("a quiet fleet round put %d frames on the wire", quiet.Frames)
	}

	// Fig. 2: LP 10 on R2's uplink, below R1's 20, moves every exit to R1.
	if _, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		log.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		log.Fatal(err)
	}
	changed, err := pipe.VerifyDistributed(policies)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the Fig. 2 change: %s (%d frames, %d bytes)\n",
		changed.Report.Summary(), changed.Frames, changed.Bytes)
	for _, v := range changed.Report.Violations {
		fmt.Println("  violation:", v)
	}
	if changed.Report.OK() {
		log.Fatal("the fleet missed the Fig. 2 violation")
	}
}
