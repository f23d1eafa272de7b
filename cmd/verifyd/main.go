// Command verifyd is the always-on verification daemon (§5). By default it
// streams Cisco-style log lines from a simulated router fleet into the
// stream daemon, keeps the happens-before graph current through incremental
// inference, bounds memory by compacting the window into a checkpoint, and
// reports what it holds. With -query-addr it instead serves the
// verification query engine over HTTP for the converged paper network.
//
// Usage:
//
//	verifyd                     # stream the fleet, compact, report
//	verifyd -checkpoint s.ckpt  # also checkpoint; a rerun recovers from it
//	verifyd -query-addr :8080   # serve GET /query and GET /stats, and block
//
// A checkpoint is a STRMCKP2 file, which carries the inference's channel
// table. A STRMCKP1 file from an older build has none and is refused ("bad
// magic"): delete it and start over, since resuming without the table would
// lose the receives still waiting for their sends.
//
// The one-shot demos live in examples/: distributed-verify (the fleet),
// local-checks (the hybrid local-check loop) and query-service (query load).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sync"
	"time"

	"hbverify"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/serve"
	"hbverify/internal/stream"
	"hbverify/internal/verify"
)

func main() {
	var (
		routers      = flag.Int("routers", 4, "simulated router count")
		waves        = flag.Int("waves", 2000, "advert waves to stream")
		checkpoint   = flag.String("checkpoint", "", "checkpoint file (enables crash recovery)")
		compactEvery = flag.Uint64("compact-every", 4096, "compact after this many ingested events (0 = never)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for scale runs")
		queryAddr    = flag.String("query-addr", "", "serve the query engine over HTTP on this address (GET /query, GET /stats) instead of streaming")
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
	if *queryAddr != "" {
		err = serveQueries(*queryAddr)
	} else {
		err = runServe(os.Stdout, serveOpts{
			routers: *routers, waves: *waves,
			checkpoint: *checkpoint, compactEvery: *compactEvery,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "verifyd:", err)
		os.Exit(1)
	}
}

// queryHandler converges the paper network and returns the query engine's
// HTTP façade over it, planned onto the pipeline's shared walk cache and
// equivalence classes, plus the function that closes the engine.
func queryHandler() (http.Handler, func(), error) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		return nil, nil, err
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		return nil, nil, err
	}
	pipe := hbverify.NewPipeline(pn.Network, []string{"r1", "r2", "r3"})
	eng := pipe.ServeEngine([]verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
	})
	return serve.Handler(eng, pn.Topo), eng.Close, nil
}

// serveQueries serves queryHandler on addr until the listener fails.
func serveQueries(addr string) error {
	h, closeEngine, err := queryHandler()
	if err != nil {
		return err
	}
	defer closeEngine()
	fmt.Printf("query service on %s — try:\n", addr)
	fmt.Printf("  curl 'http://%s/query?kind=reachability&source=r1&prefix=%s'\n", addr, network.PrefixP)
	fmt.Printf("  curl 'http://%s/stats'\n", addr)
	return http.ListenAndServe(addr, h)
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
		return fmt.Errorf("need at least 2 routers, got %d", o.routers)
	}
	fleet := stream.Fleet{Routers: o.routers, Waves: o.waves}
	reg := metrics.NewRegistry()
	d, err := stream.New(stream.Options{
		// Tighter windows than the offline default (whose 60s config
		// window would demand a minute of retained history): the synthetic
		// fleet's causality fits comfortably, and the window choice is what
		// makes compaction observable in a short run.
		Strategy:       hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: 5 * time.Second},
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
		g.NodeCount(), g.EdgeCount(), g.PrunedBelow())
	if o.checkpoint != "" {
		fmt.Fprintf(w, "serve: checkpoint written to %s — restart with the same flag to resume\n", o.checkpoint)
	}
	return nil
}
