// Command verifyd demonstrates §5's distributed verification: it converges
// a scenario, starts one TCP verification node per router plus a
// coordinator, runs the policy suite through the fleet, and reports the
// message/byte overhead against the centralized alternative.
//
// Usage:
//
//	verifyd                   # paper network, healthy
//	verifyd -violate          # paper network with the Fig. 2 misconfig
//	verifyd -grid 4           # 4x4 OSPF grid reachability sweep
//	verifyd -serve            # always-on mode: stream ingestion with
//	                          # windowed compaction and checkpointing
//	verifyd -queries 1000     # fire concurrent point queries through the
//	                          # verification query engine and report QPS,
//	                          # tail latency, and plan-cache hit ratio
//	verifyd -query-addr :8080 # expose the query engine over HTTP
//	                          # (GET /query, GET /stats) and block
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hbverify"
	"hbverify/internal/config"
	"hbverify/internal/dist"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/serve"
	"hbverify/internal/stream"
	"hbverify/internal/verify"
)

func main() {
	var (
		violate = flag.Bool("violate", false, "inject the Fig. 2 misconfiguration first")
		grid    = flag.Int("grid", 0, "use an NxN OSPF grid instead of the paper network")
		seed    = flag.Int64("seed", 1, "simulation seed")
		workers = flag.Int("workers", 0, "local verification walk pool size (0 = GOMAXPROCS)")

		localChecks = flag.Bool("local-checks", false, "run the hybrid local-check loop: per-node invariant checks certify quiet updates, violations escalate to targeted walks")

		queries   = flag.Int("queries", 0, "fire this many concurrent queries through the query engine and report service stats")
		queryAddr = flag.String("query-addr", "", "serve the query engine over HTTP on this address (GET /query, GET /stats)")

		serve        = flag.Bool("serve", false, "always-on mode: ingest simulated router log streams")
		routers      = flag.Int("routers", 4, "serve: simulated router count")
		waves        = flag.Int("waves", 2000, "serve: advert waves to stream")
		checkpoint   = flag.String("checkpoint", "", "serve: checkpoint file (enables crash recovery)")
		compactEvery = flag.Uint64("compact-every", 4096, "serve: compact after this many ingested events (0 = never)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for scale runs")
	)
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "verifyd: pprof listener:", err)
			}
		}()
	}
	var err error
	if *serve {
		err = runServe(os.Stdout, serveOpts{
			routers: *routers, waves: *waves,
			checkpoint: *checkpoint, compactEvery: *compactEvery,
		})
	} else {
		err = run(*violate, *grid, *seed, *workers, *queries, *queryAddr, *localChecks)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "verifyd:", err)
		os.Exit(1)
	}
}

// setUplinkLocalPref applies the Fig. 2 misconfiguration to the last BGP
// neighbor. A config with no neighbors gets a clear error instead of the
// out-of-range panic this used to be.
func setUplinkLocalPref(c *config.Router, lp uint32) error {
	if c.BGP == nil || len(c.BGP.Neighbors) == 0 {
		return errors.New("config has no BGP neighbors to misconfigure")
	}
	c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
	return nil
}

func run(violate bool, grid int, seed int64, workers, queries int, queryAddr string, localChecks bool) error {
	var (
		n        *network.Network
		policies []verify.Policy
		sources  []string
	)
	if grid > 0 {
		g, err := network.BuildGridOSPF(seed, grid, grid)
		if err != nil {
			return err
		}
		g.Start()
		if err := g.Run(); err != nil {
			return err
		}
		n = g
		corner := route.MustPrefix(fmt.Sprintf("9.%d.%d.1/32", grid-1, grid-1))
		policies = []verify.Policy{{Kind: verify.Reachable, Prefix: corner}}
		for _, r := range g.Routers() {
			sources = append(sources, r.Name)
		}
	} else {
		pn, err := network.BuildPaper(seed, network.DefaultPaperOpts())
		if err != nil {
			return err
		}
		pn.Start()
		if err := pn.Run(); err != nil {
			return err
		}
		if violate {
			var cfgErr error
			if _, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
				cfgErr = setUplinkLocalPref(c, 10)
			}); err != nil {
				return err
			}
			if cfgErr != nil {
				return fmt.Errorf("inject violation on r2: %w", cfgErr)
			}
			if err := pn.Run(); err != nil {
				return err
			}
		}
		n = pn.Network
		policies = []verify.Policy{
			{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
			{Kind: verify.NoLoop, Prefix: pn.P},
		}
		sources = []string{"r1", "r2", "r3"}
	}

	// One pipeline runs the suite in every mode: through the router fleet
	// first (cold: every walk travels), then on the central worker pool over
	// the same walk cache.
	pipe := hbverify.NewPipeline(n, sources)
	defer pipe.Close()
	pipe.Workers = workers
	stats, err := pipe.VerifyDistributed(policies)
	if err != nil {
		return err
	}
	fmt.Printf("result: %s\n", stats.Report.Summary())
	for _, v := range stats.Report.Violations {
		fmt.Println("  violation:", v)
	}
	fmt.Printf("overhead: %d checks, %d messages, %d batches, %d frames, %d bytes on the wire\n",
		stats.Walks, stats.Messages, stats.Batches, stats.Frames, stats.Bytes)

	views := map[string]dist.LocalView{}
	for _, r := range n.Routers() {
		views[r.Name] = dist.LocalViewOf(r)
	}
	central, err := dist.CentralizedBytes(views)
	if err != nil {
		return err
	}
	fmt.Printf("centralized alternative would ship %d bytes of FIB state\n", central)

	// The delta path: the central pool answers the same suite from the walks
	// the fleet round just cached — a tick on a quiet network costs zero
	// walks — and a second fleet round puts zero frames on the wire.
	warm := pipe.Verify(policies)
	fmt.Printf("delta re-verify: %s (%d walks executed, %d cached, %d deduped, %d classes)\n",
		warm.Summary(), warm.Walks, warm.Cached, warm.Deduped, len(pipe.Classes()))
	dstats, err := pipe.VerifyDistributed(policies)
	if err != nil {
		return err
	}
	fmt.Printf("distributed delta re-verify: %d frames/%d bytes (%d of %d walks cached)\n",
		dstats.Frames, dstats.Bytes, dstats.Report.Cached, dstats.Report.Cached+dstats.Report.Walks)
	fmt.Printf("pipeline: %s\n", pipe.Summary())

	// Hybrid local-check mode: the first round walks everything and derives
	// per-router distance labels; subsequent quiet rounds are certified by
	// node-local invariant checks alone, with violations escalating to
	// targeted walks for just the affected forwarding classes.
	if localChecks {
		for round := 1; round <= 3; round++ {
			ls, err := pipe.VerifyLocalChecks(policies)
			if err != nil {
				return err
			}
			mode := "local"
			if ls.Relabeled {
				mode = "relabel"
			}
			fmt.Printf("local-check round %d (%s): %s — %d certified, %d escalated, %d violations; %d frames/%d bytes\n",
				round, mode, ls.Report.Summary(), ls.LocalCertified, ls.Escalated, ls.LocalViolations, ls.Frames, ls.Bytes)
		}
	}

	// Verification as a query service: point queries planned onto the
	// pipeline's shared walk cache and equivalence classes.
	if queries > 0 || queryAddr != "" {
		eng := pipe.ServeEngine(policies)
		defer eng.Close()
		if queries > 0 {
			runQueries(eng, policies, sources, queries)
		}
		if queryAddr != "" {
			fmt.Printf("query service on %s — try:\n", queryAddr)
			fmt.Printf("  curl 'http://%s/query?kind=reachability&source=%s&prefix=%s'\n",
				queryAddr, sources[0], policies[0].Prefix)
			fmt.Printf("  curl 'http://%s/stats'\n", queryAddr)
			return http.ListenAndServe(queryAddr, serve.Handler(eng, pipe.Net.Topo))
		}
	}
	return nil
}

// runQueries drives the engine with concurrent mixed reachability queries
// — every (source, policy prefix) pair round-robin — and reports
// throughput, tail latency, and how much the shared plan cache absorbed.
func runQueries(eng *serve.Engine, policies []verify.Policy, sources []string, n int) {
	const clients = 4
	start := time.Now()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				src := sources[i%len(sources)]
				p := policies[i%len(policies)].Prefix
				if _, err := eng.Query(serve.Reachability(src, p)); err != nil {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := eng.Stats()
	hist := eng.Metrics().Histogram("serve.query.latency")
	fmt.Printf("query service: %d queries from %d clients in %v (%.0f qps, %d failed)\n",
		st.Queries, clients, elapsed.Round(time.Millisecond),
		float64(st.Queries)/elapsed.Seconds(), failed.Load())
	fmt.Printf("query service: p50 %v, p99 %v; hit ratio %.2f (%d cache hits, %d coalesced, %d walks executed)\n",
		hist.Quantile(0.5).Round(time.Microsecond), hist.Quantile(0.99).Round(time.Microsecond),
		st.HitRatio(), st.PlanHits, st.Coalesced, st.Executed)
}

type serveOpts struct {
	routers      int
	waves        int
	checkpoint   string
	compactEvery uint64
}

// runServe is the always-on §5 deployment shape: one goroutine per router
// streaming Cisco-style log lines through ciscolog.ParseReader into the
// stream daemon, which merges them deterministically, keeps the
// happens-before graph current through incremental inference, and bounds
// memory by compacting the capture window into a checkpoint. Restarting
// with the same -checkpoint path resumes exactly where the last compaction
// left off.
func runServe(w io.Writer, o serveOpts) error {
	if o.routers < 2 {
		return fmt.Errorf("serve mode needs at least 2 routers, got %d", o.routers)
	}
	fleet := stream.Fleet{Routers: o.routers, Waves: o.waves}
	reg := metrics.NewRegistry()
	d, err := stream.New(stream.Options{
		// Tighter windows than the offline default (whose 60s config
		// window would demand a minute of retained history): the synthetic
		// fleet's causality fits comfortably, and the window choice is what
		// makes compaction observable in a short run.
		Strategy:       hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: 5 * time.Second, CrossWindow: 500 * time.Millisecond},
		Metrics:        reg,
		SkewSlack:      2 * 200 * time.Millisecond, // twice the fleet's clock skew
		CheckpointPath: o.checkpoint,
		CompactEvery:   o.compactEvery,
		Resolve:        fleet.Resolver(),
	})
	if err != nil {
		return err
	}
	resumed := d.Log().TotalAppended()
	if resumed > 0 {
		fmt.Fprintf(w, "serve: recovered checkpoint %s — %d events already folded, window [%d,%d)\n",
			o.checkpoint, resumed, d.Log().FirstID(), resumed+1)
	}

	streams := make([]*stream.Stream, o.routers)
	for i := range streams {
		streams[i] = d.Register(fleet.RouterName(i))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range streams {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i].Consume(fleet.Reader(i))
		}()
	}
	wg.Wait()
	if err := d.Wait(); err != nil {
		return err
	}
	if err := d.Compact(); err != nil {
		return err
	}

	g := d.Graph()
	total := d.Log().TotalAppended()
	fmt.Fprintf(w, "serve: %d routers, %d events total (%d this run) in %v\n",
		o.routers, total, total-resumed, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(w, "serve: window holds %d events (first retained ID %d), %d compactions, %d checkpoints\n",
		d.Log().Len(), d.Log().FirstID(), reg.Counter("stream.compactions").Value(),
		reg.Counter("stream.checkpoints").Value())
	fmt.Fprintf(w, "serve: graph %d nodes, %d edges, pruned below ID %d\n",
		g.NodeCount(), len(g.Edges()), g.PrunedBelow())
	if o.checkpoint != "" {
		fmt.Fprintf(w, "serve: checkpoint written to %s — restart with the same flag to resume\n", o.checkpoint)
	}
	return nil
}
