package hbverify

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"hbverify/internal/dist"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

// TestFleetRoundWaitsForViewAcks is the regression for the phantom loop a
// fleet round reported when it started walks before the nodes had applied
// the round's view deltas. A link flap — which moves FIB entries on most of
// a fat-tree's routers — lands immediately before every round that syncs
// and walks: each VerifyDistributed round, and each relabel round of
// VerifyLocalChecks. A walk is always ordered behind its source node's own
// delta (same connection), so the edge routers the probes start at forward
// on the new state; the aggregation and core nodes sit on their deltas for
// a while (the SetApplyDelay hook). A round that does not wait for their
// acknowledgements walks into aggregation routers still holding the old
// state, which on a link restore bounce the probe back to where it came
// from. The round must instead agree with the central checker over the
// live FIBs. Run under -race in CI.
func TestFleetRoundWaitsForViewAcks(t *testing.T) {
	const k = 6
	// quiet is how many rounds pass between two that sync and walk.
	modes := map[string]struct {
		round func(*Pipeline, []verify.Policy) (dist.Stats, error)
		quiet int
	}{
		"VerifyDistributed": {(*Pipeline).VerifyDistributed, 0},
		"VerifyLocalChecks": {(*Pipeline).VerifyLocalChecks, localRelabelEvery - 1},
	}
	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			n, err := network.BuildFatTree(1, k)
			if err != nil {
				t.Fatal(err)
			}
			n.Start()
			if err := n.Run(); err != nil {
				t.Fatal(err)
			}
			var edges []string
			var policies []verify.Policy
			for pod := 0; pod < k; pod++ {
				for i := 0; i < k/2; i++ {
					edges = append(edges, fmt.Sprintf("p%de%d", pod, i))
					lo := netip.MustParsePrefix(fmt.Sprintf("9.1.%d.%d/32", pod, i+1))
					policies = append(policies,
						verify.Policy{Kind: verify.Reachable, Prefix: lo},
						verify.Policy{Kind: verify.NoLoop, Prefix: lo})
				}
			}
			p := NewPipeline(n, edges)
			defer p.Close()
			if stats, err := mode.round(p, policies); err != nil || !stats.Report.OK() { // builds the fleet
				t.Fatalf("first round: %v, %s", err, stats.Report.Summary())
			}
			source := map[string]bool{}
			for _, e := range edges {
				source[e] = true
			}
			for name, node := range p.distNodes {
				if !source[name] {
					node.SetApplyDelay(50 * time.Millisecond)
				}
			}
			for flap := 0; flap < 4; flap++ {
				for i := 0; i < mode.quiet; i++ {
					if stats, err := mode.round(p, policies); err != nil || stats.Relabeled || !stats.Report.OK() {
						t.Fatalf("flap %d, quiet round %d: %v, relabeled=%v, %s", flap, i, err, stats.Relabeled, stats.Report.Summary())
					}
				}
				if _, err := n.SetLinkUp("p0e0", "p0a0", flap%2 == 1); err != nil {
					t.Fatal(err)
				}
				if err := n.Run(); err != nil {
					t.Fatal(err)
				}
				stats, err := mode.round(p, policies)
				if err != nil {
					t.Fatalf("flap %d: %v", flap, err)
				}
				if mode.quiet > 0 && !stats.Relabeled {
					t.Fatalf("flap %d: expected a relabel round", flap)
				}
				// A cold checker: the round stores its walks in the walk cache
				// p.Verify would read them back from.
				if central := p.checker(p.Walker()).Check(policies); len(stats.Report.Violations) != len(central.Violations) {
					t.Fatalf("flap %d (link up=%v): fleet round reports %d violations, central %d; first: %v",
						flap, flap%2 == 1, len(stats.Report.Violations), len(central.Violations), stats.Report.Violations[0])
				}
			}
		})
	}
}
