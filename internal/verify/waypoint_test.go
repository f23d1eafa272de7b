package verify

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"hbverify/internal/dataplane"
	"hbverify/internal/network"
)

// bypassesWaypointMaps is the map-based evaluation bypassesWaypoint
// replaced, kept as its reference: an adjacency map from the walk's edges
// and a seen-set, searched from the source with the waypoint removed.
func bypassesWaypointMaps(walk dataplane.Walk, waypoint string) bool {
	if len(walk.Path) == 0 {
		return false
	}
	src := walk.Path[0]
	if src == waypoint {
		return false
	}
	next := map[string][]string{}
	for _, e := range walk.Edges {
		next[e[0]] = append(next[e[0]], e[1])
	}
	seen := map[string]bool{src: true}
	stack := []string{src}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		outs := next[r]
		if len(outs) == 0 {
			return true // terminal reached without the waypoint
		}
		for _, nr := range outs {
			if nr == waypoint || seen[nr] {
				continue
			}
			seen[nr] = true
			stack = append(stack, nr)
		}
	}
	return false
}

// randomWalk runs the symbolic walk over a random forwarding graph of n
// routers: most routers forward to one to three others (back and cross
// edges included), and some also deliver, drop or get stuck. With funnel
// set, routers r0..r(n/2-1) never terminate and forward only among
// themselves or to r(n/2), which then sits on every trajectory that
// terminates. A small hop budget leaves some edges pointing at unexplored
// routers.
func randomWalk(rng *rand.Rand, n int, funnel bool) dataplane.Walk {
	name := func(i int) string { return fmt.Sprintf("r%d", i) }
	f := n / 2
	exp := make(map[string]dataplane.Expansion, n)
	for i := 0; i < n; i++ {
		var ex dataplane.Expansion
		upstream := funnel && i < f
		targets, fanout := n, rng.Intn(4)
		if upstream {
			targets, fanout = f+1, 1+rng.Intn(3)
		} else if rng.Intn(5) > 0 {
			fanout = 1 + rng.Intn(3)
		}
		for k := 0; k < fanout; k++ {
			if j := rng.Intn(targets); j != i {
				ex.Nexts = append(ex.Nexts, name(j))
			}
		}
		if !upstream {
			switch rng.Intn(8) {
			case 0:
				ex.Delivered = true
			case 1:
				ex.Dropped, ex.Nexts = true, nil
			case 2:
				ex.Stuck = true
			}
		}
		exp[name(i)] = ex
	}
	hops := 64
	if rng.Intn(4) == 0 {
		hops = 1 + rng.Intn(6)
	}
	return dataplane.SymbolicWalk(name(0), netip.MustParseAddr("10.0.0.1"), hops, func(r string) dataplane.Expansion { return exp[r] })
}

// TestWaypointMatchesMapReference: over random walks with fan-out, back
// and cross edges, terminal and stuck leaves, hop-budget cuts and a few
// walks too large for the stack arrays, the position-indexed evaluation
// answers exactly as the map-based one, for a waypoint that is the source,
// is absent, is any explored router, or funnels every trajectory.
func TestWaypointMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var branched, held, heldLong, bypassed int
	for i := 0; i < 1500; i++ {
		n := 2 + rng.Intn(30)
		if i%50 == 0 {
			n = 70 + rng.Intn(30) // past the evaluation's stack arrays
		}
		funnel := rng.Intn(3) == 0
		walk := randomWalk(rng, n, funnel)
		if walk.Branches > 0 {
			branched++
		}
		waypoints := []string{walk.Path[0], "absent"}
		waypoints = append(waypoints, walk.Path[rng.Intn(len(walk.Path))])
		if funnel {
			waypoints = append(waypoints, fmt.Sprintf("r%d", n/2))
		}
		for _, wp := range waypoints {
			want := bypassesWaypointMaps(walk, wp)
			if got := bypassesWaypoint(walk, wp); got != want {
				t.Fatalf("walk %d, waypoint %s: bypassed = %v, reference %v\npath %v\nedges %v", i, wp, got, want, walk.Path, walk.Edges)
			}
			if want {
				bypassed++
			} else if wp != walk.Path[0] {
				held++
				if len(walk.Path) > 15 {
					heldLong++
				}
			}
		}
	}
	if branched < 500 || held < 200 || heldLong < 20 || bypassed < 500 {
		t.Fatalf("generator too narrow: %d branched walks, %d held (%d on paths over 15 routers) and %d bypassed waypoints",
			branched, held, heldLong, bypassed)
	}
}

// TestWaypointEvaluationAllocatesNothing: evaluating a Waypoint policy on
// a branched walk across a k=4 fat tree — four equal-cost trajectories
// through two aggregation and four core routers — allocates nothing.
func TestWaypointEvaluationAllocatesNothing(t *testing.T) {
	n, err := network.BuildFatTree(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	dst := netip.MustParsePrefix("9.1.1.1/32") // p1e0's loopback
	walk := n.LiveWalker().ForwardPrefix("p0e0", dst)
	if walk.Outcome != dataplane.Delivered || walk.Branches == 0 || len(walk.Edges) < 8 {
		t.Fatalf("want a branched delivered walk, got %v with %d branches, %d edges", walk, walk.Branches, len(walk.Edges))
	}
	for _, tc := range []struct {
		via      string
		bypassed bool
	}{{"p1e0", false}, {"p1a0", true}} {
		if got := bypassesWaypoint(walk, tc.via); got != tc.bypassed {
			t.Fatalf("waypoint %s: bypassed = %v, want %v", tc.via, got, tc.bypassed)
		}
	}
	pol := Policy{Kind: Waypoint, Prefix: dst, Expect: "p1e0"}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, bad := Evaluate(pol, "p0e0", walk); bad {
			t.Fatal("p1e0 is on every trajectory")
		}
	}); allocs != 0 {
		t.Errorf("Evaluate(Waypoint) on a branched walk: %v allocations, want 0", allocs)
	}
}
