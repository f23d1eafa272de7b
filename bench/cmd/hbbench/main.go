// Command hbbench runs the repository's benchmark: one workload per
// invocation (-workload), every workload in turn (no -workload), or the
// whole pass twice with the two compared (-selfcheck). The last line of
// standard output of a single-workload run is one JSON object with the
// run's verdict and metrics.
package main

import (
	"flag"
	"fmt"
	"os"

	"hbverify/bench"
)

func main() {
	var cfg bench.Config
	var trace int
	var scale string
	var selfcheck bool
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run (default: each of "+fmt.Sprint(bench.Workloads)+" in turn)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed every schedule and input is generated from")
	flag.IntVar(&cfg.Seconds, "seconds", bench.RefSeconds, "target length of the timed section; operation counts are derived from it")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced, quarter-length run that reports the per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full, or smoke for the sizes the unit tests use")
	flag.StringVar(&cfg.OutDir, "out", "out", "directory that receives trace-<workload>.json")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the full pass twice and compare every end-to-end metric against its bound")
	flag.Parse()
	cfg.Trace = trace != 0
	switch scale {
	case "full":
	case "smoke":
		cfg.Smoke = true
	default:
		fmt.Fprintf(os.Stderr, "hbbench: -scale must be full or smoke, got %q\n", scale)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hbbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	var err error
	switch {
	case selfcheck:
		err = bench.SelfCheck(os.Stdout, cfg)
	case cfg.Workload != "":
		err = bench.RunAndReport(os.Stdout, cfg)
	default:
		for _, name := range bench.Workloads {
			cfg.Workload = name
			if err = bench.RunAndReport(os.Stdout, cfg); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		os.Exit(1)
	}
}
