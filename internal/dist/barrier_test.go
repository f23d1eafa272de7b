package dist

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

// TestFleetRoundWaitsForViewAcks is the regression for the phantom loop a
// fleet round reported when it started walks before the nodes had applied
// the round's view deltas. A link flap — which moves FIB entries on most of
// a fat-tree's routers — lands immediately before every round that syncs
// and walks: each Verify round, and each relabel round of VerifyLocal. A
// walk is always ordered behind its source node's own delta (same
// connection), so the edge routers the probes start at forward on the new
// state; the aggregation and core nodes sit on their deltas for a while
// (applyDelay). A round that does not wait for their acknowledgements walks
// into aggregation routers still holding the old state, which on a link
// restore bounce the probe back to where it came from. The round must
// instead agree with the central checker over the live FIBs. The fleet is
// fed by the FIB and link hooks, as a pipeline's is. Run under -race in CI.
func TestFleetRoundWaitsForViewAcks(t *testing.T) {
	const k = 6
	// quiet is how many rounds pass between two that sync and walk: for
	// VerifyLocal, the round after localRelabelEvery-1 quiet ones relabels.
	modes := map[string]struct {
		round func(*Fleet, *verify.Checker, []verify.Policy) (Stats, error)
		quiet int
	}{
		"Verify":      {(*Fleet).Verify, 0},
		"VerifyLocal": {(*Fleet).VerifyLocal, localRelabelEvery - 1},
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
			f := startFleet(t, n)
			for _, r := range n.Routers() {
				name := r.Name
				r.FIB.OnChange(func(u fib.Update) { f.Note(name, u) })
			}
			n.OnLinkChange(func(a, b string, _ bool) {
				f.NoteLinks(a)
				f.NoteLinks(b)
			})
			// A cache-less checker: every round walks what it checks.
			round := func() (Stats, error) { return mode.round(f, verify.NewChecker(nil, edges), policies) }
			if stats, err := round(); err != nil || !stats.Report.OK() {
				t.Fatalf("first round: %v, %s", err, stats.Report.Summary())
			}
			source := map[string]bool{}
			for _, e := range edges {
				source[e] = true
			}
			for _, r := range n.Routers() {
				if !source[r.Name] {
					f.Node(r.Name).applyDelay.Store(int64(50 * time.Millisecond))
				}
			}
			// One long-lived live walker, as a pipeline's: its router cache
			// must follow the flaps.
			central := verify.NewChecker(n.LiveWalker(), edges)
			for flap := 0; flap < 4; flap++ {
				for i := 0; i < mode.quiet; i++ {
					if stats, err := round(); err != nil || stats.Relabeled || !stats.Report.OK() {
						t.Fatalf("flap %d, quiet round %d: %v, relabeled=%v, %s", flap, i, err, stats.Relabeled, stats.Report.Summary())
					}
				}
				if _, err := n.SetLinkUp("p0e0", "p0a0", flap%2 == 1); err != nil {
					t.Fatal(err)
				}
				if err := n.Run(); err != nil {
					t.Fatal(err)
				}
				stats, err := round()
				if err != nil {
					t.Fatalf("flap %d: %v", flap, err)
				}
				if mode.quiet > 0 && !stats.Relabeled {
					t.Fatalf("flap %d: expected a relabel round", flap)
				}
				if want := central.Check(policies); len(stats.Report.Violations) != len(want.Violations) {
					t.Fatalf("flap %d (link up=%v): fleet round reports %d violations, central %d; first: %v",
						flap, flap%2 == 1, len(stats.Report.Violations), len(want.Violations),
						append(stats.Report.Violations, want.Violations...)[0])
				}
			}
		})
	}
}
