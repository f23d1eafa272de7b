// Command replay is the §7 pipeline as a tool: it parses Cisco-IOS-style
// router logs, infers the happens-before graph, and reports provenance and
// root causes for every FIB update — plus the snapshot-consistency verdict.
//
// Usage:
//
//	replay -gen logs/        # generate the Fig. 5 logs into logs/<router>.log
//	replay logs/*.log        # parse logs (router name = file basename)
//	replay -dot logs/*.log   # also emit the inferred HBG as DOT
//	replay -seed 7           # run randomized scenario seed 7 end to end
//	replay -schedule f.json  # replay a scenario failure artifact exactly
package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/ciscolog"
	"hbverify/internal/config"
	"hbverify/internal/fault"
	"hbverify/internal/hbr"
	"hbverify/internal/network"
	"hbverify/internal/scenario"
	"hbverify/internal/snapshot"
)

func main() {
	var (
		gen      = flag.String("gen", "", "generate Fig. 5 logs into this directory and exit")
		dot      = flag.Bool("dot", false, "print the inferred HBG as Graphviz DOT")
		seed     = flag.Int64("seed", 0, "run the randomized scenario with this seed (nonzero)")
		shape    = flag.String("shape", "", "override the scenario topology shape (ring|mesh|fattree|fattree-k4|isp-rr)")
		mix      = flag.String("mix", "", "override the scenario protocol mix (ospf+bgp|ospf|rip|eigrp)")
		rounds   = flag.Int("rounds", 0, "override the scenario churn-round count")
		bug      = flag.String("bug", "", "inject a known bug (e.g. drop-ecmp-branch) so an oracle must catch it")
		schedule = flag.String("schedule", "", "replay a scenario failure artifact (JSON) exactly")
	)
	flag.Parse()
	if *gen != "" {
		if err := generate(*gen); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		return
	}
	if *seed != 0 || *schedule != "" {
		if b := fault.Bug(*bug); b != "" && !fault.Known(b) {
			fmt.Fprintf(os.Stderr, "replay: unknown -bug %q; known bugs: %v\n", b, fault.Bugs)
			os.Exit(2)
		}
		cfg := scenario.Config{Seed: *seed, Shape: *shape, Mix: *mix, Rounds: *rounds, Bug: fault.Bug(*bug)}
		failed, err := runScenario(cfg, *schedule, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		if failed {
			os.Exit(3)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "replay: no log files (try -gen logs/ first)")
		os.Exit(2)
	}
	if err := analyze(flag.Args(), *dot); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// runScenario executes one randomized scenario — either fresh from cfg
// or replaying a failure artifact byte-exactly — and reports the oracle
// verdict. It returns failed=true (exit code 3) when an oracle fails, so
// a reproduced failure is distinguishable from a tool error.
func runScenario(cfg scenario.Config, schedulePath string, out io.Writer) (failed bool, err error) {
	if schedulePath != "" {
		a, err := scenario.ReadArtifact(schedulePath)
		if err != nil {
			return false, err
		}
		cfg = a.Config
		if cfg.Schedule == nil {
			cfg.Schedule = []scenario.Event{}
		}
		fmt.Fprintf(out, "replaying artifact %s (expecting oracle %s to fail)\n", schedulePath, a.Failure.Oracle)
	}
	mat, err := scenario.Materialize(cfg)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "scenario seed=%d shape=%s mix=%s routers=%d rounds=%d (%d churn events)\n",
		mat.Seed, mat.Shape, mat.Mix, mat.Routers, mat.Rounds, len(mat.Schedule))
	res := scenario.Run(cfg)
	if res.Failure != nil {
		if schedulePath != "" {
			// Already minimized: report without re-shrinking.
			fmt.Fprint(out, scenario.FailureReport(scenario.Artifact{Config: res.Config, Failure: *res.Failure}, ""))
		} else {
			_, report := scenario.ReportFailure(res.Config, *res.Failure, "")
			fmt.Fprint(out, report)
		}
		return true, nil
	}
	waits := 0
	for _, c := range res.Cuts {
		waits += c.Waits
	}
	fmt.Fprintf(out, "ok: %d rounds, %d IOs (digest %016x), all oracles passed; snapshot cuts waited %d times, %d channel desyncs\n",
		res.Rounds, res.IOs, res.Digest, waits, res.Desync)
	return false, nil
}

// generate runs the §7 scenario and writes per-router IOS-style logs.
func generate(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		return err
	}
	pn.SoftReconfigDelay = 25 * time.Second
	pn.Start()
	if err := pn.Run(); err != nil {
		return err
	}
	if _, err := pn.UpdateConfig("r1", "neighbor localpref 200", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 200
	}); err != nil {
		return err
	}
	if err := pn.Run(); err != nil {
		return err
	}
	byRouter := map[string][]capture.IO{}
	for _, io := range pn.Log.Snapshot() {
		byRouter[io.Router] = append(byRouter[io.Router], io)
	}
	for router, ios := range byRouter {
		f, err := os.Create(filepath.Join(dir, router+".log"))
		if err != nil {
			return err
		}
		if err := ciscolog.EmitLog(f, ios); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	// A topology hint file so analysis can resolve peer addresses (an
	// address and its router) and the far ends of links (a router, an
	// interface and the router across its link).
	hints, err := os.Create(filepath.Join(dir, "addresses.map"))
	if err != nil {
		return err
	}
	defer hints.Close()
	for _, r := range pn.Routers() {
		fmt.Fprintf(hints, "%s %s\n", r.Topo.Loopback, r.Name)
		for _, i := range r.Topo.Interfaces() {
			fmt.Fprintf(hints, "%s %s\n", i.Addr, r.Name)
			if i.Link != nil {
				fmt.Fprintf(hints, "%s %s %s\n", r.Name, i.Name, i.Peer().Router)
			}
		}
	}
	fmt.Printf("wrote %d router logs + addresses.map to %s\n", len(byRouter), dir)
	return nil
}

// analyze parses the logs and reports root causes.
func analyze(files []string, dot bool) error {
	resolver, neighbor, err := loadResolver(files)
	if err != nil {
		return err
	}
	parser := ciscolog.NewParser(resolver)
	parser.Neighbor = neighbor
	var all []capture.IO
	for _, path := range files {
		if strings.HasSuffix(path, "addresses.map") {
			continue
		}
		router := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		ios, err := parser.ParseLog(router, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, ios...)
		fmt.Printf("parsed %4d events from %s\n", len(ios), path)
	}
	g := hbr.Rules{}.Infer(all)
	fmt.Printf("inferred HBG: %d vertices, %d edges\n", g.NodeCount(), g.EdgeCount())

	// Each router's log is whole and in order, and a channel's two ends are
	// paired by their places on it, so the per-router concatenation pairs
	// as the merged log would.
	v := capture.ViewOf(all)
	_, res := snapshot.ConsistentCut(v, snapshot.Cut{}, hbr.Pair(v), nil)
	if res.Consistent {
		fmt.Println("snapshot: consistent")
	} else {
		fmt.Printf("snapshot: INCONSISTENT, wait for %v (%d unmatched receives)\n", res.WaitFor, len(res.Missing))
	}

	fmt.Println("root causes of FIB updates:")
	for _, io := range all {
		if io.Type != capture.FIBInstall && io.Type != capture.FIBRemove {
			continue
		}
		roots := g.RootCauses(io.ID)
		for _, root := range roots {
			if root.ID == io.ID {
				continue // self-rooted: uninteresting
			}
			fmt.Printf("  %s  <=  %s\n", io, root)
		}
	}
	if dot {
		fmt.Println(g.DOT())
	}
	return nil
}

// loadResolver reads addresses.map if present among/alongside the inputs:
// its two-field lines resolve addresses, its three-field lines links.
func loadResolver(files []string) (ciscolog.Resolver, ciscolog.Neighbor, error) {
	var path string
	for _, f := range files {
		if strings.HasSuffix(f, "addresses.map") {
			path = f
			break
		}
	}
	if path == "" && len(files) > 0 {
		candidate := filepath.Join(filepath.Dir(files[0]), "addresses.map")
		if _, err := os.Stat(candidate); err == nil {
			path = candidate
		}
	}
	m := map[netip.Addr]string{}
	links := map[[2]string]string{}
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			switch fields := strings.Fields(line); len(fields) {
			case 2:
				if a, err := netip.ParseAddr(fields[0]); err == nil {
					m[a] = fields[1]
				}
			case 3:
				links[[2]string{fields[0], fields[1]}] = fields[2]
			}
		}
	}
	return func(a netip.Addr) string { return m[a] },
		func(router, iface string) string { return links[[2]string{router, iface}] }, nil
}
