package verify

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"hbverify/internal/dataplane"
	"hbverify/internal/network"
)

// bypassesWaypointMaps is the map-based evaluation the walk's Through list
// replaced, kept as its reference: an adjacency map from the walk's edges
// and a seen-set, searched from the source with the waypoint removed. A
// trajectory ends at a router with no edge out or, read off expand, with a
// terminal branch beside its forwards.
func bypassesWaypointMaps(walk dataplane.Walk, expand dataplane.ExpandFunc, waypoint string) bool {
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
		if ex := expand(r); len(outs) == 0 || ex.Delivered || ex.Dropped || ex.Stuck {
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
// routers. It returns the walk and the expansions it was made from.
func randomWalk(rng *rand.Rand, n int, funnel bool) (dataplane.Walk, dataplane.ExpandFunc) {
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
	expand := func(r string) dataplane.Expansion { return exp[r] }
	return dataplane.SymbolicWalk(name(0), netip.MustParseAddr("10.0.0.1"), hops, expand), expand
}

// bypasses evaluates a Waypoint policy on a walk.
func bypasses(walk dataplane.Walk, waypoint string) bool {
	_, bad := Evaluate(Policy{Kind: Waypoint, Expect: waypoint}, walk.Path[0], walk)
	return bad
}

// TestWaypointMatchesMapReference: over random branched walks with fan-out,
// back and cross edges, terminal and stuck leaves, hop-budget cuts and a
// few walks too large for the walk's stack arrays, evaluation over the
// walk's Through list answers exactly as the map-based search, for a
// waypoint that is the source, is absent, is any explored router, or
// funnels every trajectory.
func TestWaypointMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var branched, held, heldLong, bypassed int
	for i := 0; i < 1500; i++ {
		n := 2 + rng.Intn(30)
		if i%50 == 0 {
			n = 70 + rng.Intn(30) // past the evaluation's stack arrays
		}
		funnel := rng.Intn(3) == 0
		walk, expand := randomWalk(rng, n, funnel)
		if walk.Branches == 0 {
			continue // one trajectory, Path: the reference reads only Edges
		}
		branched++
		waypoints := []string{walk.Path[0], "absent"}
		waypoints = append(waypoints, walk.Path[rng.Intn(len(walk.Path))])
		if funnel {
			waypoints = append(waypoints, fmt.Sprintf("r%d", n/2))
		}
		for _, wp := range waypoints {
			want := bypassesWaypointMaps(walk, expand, wp)
			if got := bypasses(walk, wp); got != want {
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

// TestWaypointTerminalThatForwards: a router that both ends a branch and
// forwards ends a trajectory. From S, X delivers some flows and forwards
// the rest to W, which delivers them; some flows never traverse W. The
// same holds when X's terminal branch is stuck.
func TestWaypointTerminalThatForwards(t *testing.T) {
	for _, x := range []dataplane.Expansion{
		{Delivered: true, Nexts: []string{"W"}},
		{Stuck: true, Nexts: []string{"W"}},
	} {
		exp := map[string]dataplane.Expansion{"S": {Nexts: []string{"X"}}, "X": x, "W": {Delivered: true}}
		walk := dataplane.SymbolicWalk("S", netip.MustParseAddr("10.0.0.1"), dataplane.MaxHops,
			func(r string) dataplane.Expansion { return exp[r] })
		for _, tc := range []struct {
			via      string
			bypassed bool
		}{{"S", false}, {"X", false}, {"W", true}} {
			if got := bypasses(walk, tc.via); got != tc.bypassed {
				t.Errorf("X %+v, waypoint %s: bypassed = %v, want %v (walk %v)", x, tc.via, got, tc.bypassed, walk)
			}
		}
	}
}

// fatTreeWalk walks from p0e0 toward p1e0's loopback on a converged k=4
// fat tree: four equal-cost trajectories through two aggregation and four
// core routers.
func fatTreeWalk(t *testing.T) (*dataplane.Walker, netip.Prefix, dataplane.Walk) {
	t.Helper()
	n, err := network.BuildFatTree(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	dst := netip.MustParsePrefix("9.1.1.1/32") // p1e0's loopback
	w := dataplane.NewWalker(n.Topo, n.Live())
	walk := w.ForwardPrefix("p0e0", dst)
	if walk.Outcome != dataplane.Delivered || walk.Branches == 0 || len(walk.Edges) < 8 {
		t.Fatalf("want a branched delivered walk, got %v with %d branches, %d edges", walk, walk.Branches, len(walk.Edges))
	}
	return w, dst, walk
}

// TestWaypointEvaluationAllocatesNothing: evaluating a Waypoint policy on
// a branched walk across a k=4 fat tree allocates nothing.
func TestWaypointEvaluationAllocatesNothing(t *testing.T) {
	_, dst, walk := fatTreeWalk(t)
	for _, tc := range []struct {
		via      string
		bypassed bool
	}{{"p1e0", false}, {"p1a0", true}} {
		if got := bypasses(walk, tc.via); got != tc.bypassed {
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

// TestSymbolicWalkAllocationBudget: computing a branched walk's Through
// list costs the walk at most one allocation, the list itself. Every
// walk pays it, including the ones no waypoint policy reads (the
// churn_reverify workload's). The walker's router cache is warm, as on a
// served miss or a re-verification.
func TestSymbolicWalkAllocationBudget(t *testing.T) {
	w, dst, walk := fatTreeWalk(t)
	if want := []string{"p0e0", "p1e0"}; !slices.Equal(walk.Through, want) {
		t.Fatalf("through %v, want %v", walk.Through, want)
	}
	// The walk allocated 29 times before it computed Through.
	const budget = 29 + 1
	if allocs := testing.AllocsPerRun(100, func() { w.ForwardPrefix("p0e0", dst) }); allocs > budget {
		t.Errorf("a branched fat-tree walk allocates %v times, budget %d", allocs, budget)
	}
}
