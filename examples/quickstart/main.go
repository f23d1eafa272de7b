// Quickstart: build the paper's example network (Fig. 1), converge it, and
// verify the operator policy — "traffic for P exits via R2's uplink while
// it is available" — over the live data plane.
package main

import (
	"fmt"
	"log"

	"hbverify"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

func main() {
	// 1. Build and converge the network: R1, R2, R3 run OSPF + an iBGP
	//    full mesh; providers E1/E2 advertise the external prefix P.
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		log.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		log.Fatal(err)
	}

	// 2. Inspect the converged FIBs.
	fmt.Println("converged FIB entries for", pn.P)
	live := pn.Live()
	for _, name := range []string{"r1", "r2", "r3"} {
		e, ok := live.State(name).Exact(pn.P)
		if !ok {
			log.Fatalf("%s has no route", name)
		}
		fmt.Printf("  %-3s %v\n", name, e)
	}

	// 3. Verify the policy with the integrated pipeline.
	pipe := hbverify.NewPipeline(pn.Network, []string{"r1", "r2", "r3"})
	report := pipe.Verify([]verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
		{Kind: verify.NoBlackhole, Prefix: pn.P},
	})
	fmt.Println("verification:", report.Summary())

	// 4. Every FIB entry has provenance: trace r3's route to its origin.
	fmt.Println("happens-before accuracy vs simulator ground truth:")
	m := pipe.Accuracy()
	fmt.Printf("  precision=%.2f recall=%.2f f1=%.2f\n", m.Precision, m.Recall, m.F1)
}
