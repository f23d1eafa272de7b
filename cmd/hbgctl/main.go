// Command hbgctl runs the paper's scenarios and prints verification
// results, happens-before graphs, and root-cause diagnoses.
//
// Usage:
//
//	hbgctl -scenario fig1            # healthy convergence (Fig. 1a/1b)
//	hbgctl -scenario fig2            # local-pref misconfiguration (Fig. 2)
//	hbgctl -scenario fig2 -repair    # ... and roll back the root cause
//	hbgctl -scenario fig5            # §7 feasibility timings
//	hbgctl -scenario fig2 -dot       # emit the HBG in Graphviz format
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hbverify"
	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

func main() {
	var (
		scenario = flag.String("scenario", "fig2", "scenario: fig1, fig2, fig5")
		seed     = flag.Int64("seed", 1, "simulation seed")
		dot      = flag.Bool("dot", false, "print the happens-before graph as Graphviz DOT")
		text     = flag.Bool("text", false, "print the happens-before graph as text")
		doRepair = flag.Bool("repair", false, "roll back the root cause when a violation is found")
	)
	flag.Parse()
	if err := run(*scenario, *seed, *dot, *text, *doRepair); err != nil {
		fmt.Fprintln(os.Stderr, "hbgctl:", err)
		os.Exit(1)
	}
}

func run(scenario string, seed int64, dot, text, doRepair bool) error {
	opt := network.DefaultPaperOpts()
	pn, err := network.BuildPaper(seed, opt)
	if err != nil {
		return err
	}
	if scenario == "fig5" {
		pn.SoftReconfigDelay = 25 * time.Second
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		return err
	}
	pipe := hbverify.NewPipeline(pn.Network, []string{"r1", "r2", "r3"})
	policies := []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
		{Kind: verify.NoBlackhole, Prefix: pn.P},
	}

	switch scenario {
	case "fig1":
		// Already converged; nothing further to inject.
	case "fig2":
		if _, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
		}); err != nil {
			return err
		}
	case "fig5":
		if _, err := pn.UpdateConfig("r1", "neighbor localpref 200", func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 200
		}); err != nil {
			return err
		}
		policies[0].Expect = "e2" // still the operator policy; now violated
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	if err := pn.Run(); err != nil {
		return err
	}

	fmt.Println("== state ==")
	fmt.Println(pipe.Summary())
	live := pn.Live()
	for _, r := range []string{"r1", "r2", "r3"} {
		if e, ok := live.State(r).Exact(pn.P); ok {
			fmt.Printf("  %s: %s\n", r, e)
		} else {
			fmt.Printf("  %s: no route for %s\n", r, pn.P)
		}
	}

	fmt.Println("== verification ==")
	d := pipe.Detect(policies)
	fmt.Println(" ", d.Report.Summary())
	for _, v := range d.Report.Violations {
		fmt.Println("  violation:", v)
	}
	if !d.Report.OK() {
		fmt.Println("  fault:", d.Fault)
		for _, root := range d.Roots {
			fmt.Println("  root cause:", root)
		}
	}

	if doRepair && !d.Report.OK() {
		fmt.Println("== repair ==")
		d2, err := pipe.DetectAndRepair(policies)
		if err != nil {
			return err
		}
		fmt.Println(" ", d2)
		if err := pn.Run(); err != nil {
			return err
		}
		after := pipe.Verify(policies)
		fmt.Println("  post-repair:", after.Summary())
	}

	if dot {
		fmt.Println(pipe.Graph().DOT())
	}
	if text {
		fmt.Println(pipe.Graph().Text())
	}
	if scenario == "fig5" {
		printFig5Timings(pn)
	}
	return nil
}

// printFig5Timings reports the §7 latency chain on r1.
func printFig5Timings(pn *network.PaperNet) {
	fmt.Println("== fig5 timings (r1) ==")
	ios := pn.Log.ForRouter("r1")
	var cc, soft, fib, send capture.IO
	for _, io := range ios { // last config change and soft reconfig
		switch io.Type {
		case capture.ConfigChange:
			cc = io
		case capture.SoftReconfig:
			soft = io
		}
	}
	for _, io := range ios { // first FIB install / advert after the reconfig
		if io.ID <= soft.ID {
			continue
		}
		if io.Type == capture.FIBInstall && fib.ID == 0 {
			fib = io
		}
		if io.Type == capture.SendAdvert && send.ID == 0 {
			send = io
		}
	}
	if soft.ID != 0 && cc.ID != 0 {
		fmt.Printf("  config -> soft reconfiguration: %v\n", soft.Time.Sub(cc.Time))
	}
	if fib.ID != 0 && soft.ID != 0 {
		fmt.Printf("  soft reconfiguration -> FIB install: %v\n", fib.Time.Sub(soft.Time))
	}
	if send.ID != 0 && fib.ID != 0 {
		fmt.Printf("  FIB install -> advertisement: %v\n", send.Time.Sub(fib.Time))
	}
}
