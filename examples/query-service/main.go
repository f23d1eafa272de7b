// Verification as a query service: point queries are planned onto the
// pipeline's shared walk cache and forwarding equivalence classes, so
// concurrent clients asking the same question cost one walk. Four clients
// fire reachability queries round-robin over every (source, prefix) pair of
// the paper network; the service reports throughput, tail latency and how
// much the plan cache absorbed. `go run ./cmd/verifyd -query-addr :8080`
// serves the same engine over HTTP.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"hbverify"
	"hbverify/internal/network"
	"hbverify/internal/serve"
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
	sources := []string{"r1", "r2", "r3"}
	pipe := hbverify.NewPipeline(pn.Network, sources)
	policies := []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pn.P},
	}
	eng := pipe.ServeEngine(policies)
	defer eng.Close()

	const clients, queries = 4, 1000
	start := time.Now()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < queries; i += clients {
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
	fmt.Printf("%d queries from %d clients in %v (%.0f qps, %d failed)\n",
		st.Queries, clients, elapsed.Round(time.Millisecond),
		float64(st.Queries)/elapsed.Seconds(), failed.Load())
	fmt.Printf("p50 %v, p99 %v; hit ratio %.2f (%d cache hits, %d coalesced, %d walks executed)\n",
		hist.Quantile(0.5).Round(time.Microsecond), hist.Quantile(0.99).Round(time.Microsecond),
		st.HitRatio(), st.PlanHits, st.Coalesced, st.Executed)
	if n := failed.Load(); n > 0 {
		log.Fatalf("%d queries failed", n)
	}
}
