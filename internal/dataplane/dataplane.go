// Package dataplane walks packets across a set of FIBs. A walk performs
// longest-prefix match at each router, resolves recursive next hops (an
// iBGP route's next hop is a remote loopback that must itself be looked
// up), and reports the outcome: delivered, dropped (no route), looped, or
// stuck (unresolvable next hop).
//
// FIB entries may be multipath (ECMP): a walk is therefore *symbolic* — it
// explores every equal-cost branch at once, turning the walk into a DAG
// exploration that verifies a whole forwarding equivalence class in one
// pass (ACORN's route-nondeterminism abstraction). Besides the per-path
// outcomes above, symbolic walks detect two ECMP-specific conditions:
// DivergentEgress (every member path delivers, but at different egress
// routers) and PartialBlackhole (some members deliver while others drop or
// get stuck — the partial-LAG failure mode).
//
// The walker is deliberately decoupled from live fib.Tables: it reads FIBs
// through a View function, so verifiers can walk a *snapshot* — including
// an inconsistent one, which is the whole point of the paper's Fig. 1c —
// and repair engines can walk a gated view that differs from what the
// control plane believes.
package dataplane

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"hbverify/internal/fib"
	"hbverify/internal/topology"
)

// View resolves a destination to a FIB entry at one router. ok=false means
// no matching route.
type View func(router string, dst netip.Addr) (fib.Entry, bool)

// TableView adapts live fib.Tables (keyed by router) to a View.
func TableView(tables map[string]*fib.Table) View {
	return func(router string, dst netip.Addr) (fib.Entry, bool) {
		t := tables[router]
		if t == nil {
			return fib.Entry{}, false
		}
		return t.Lookup(dst)
	}
}

// SnapshotView adapts static per-router FIB maps to a View, doing
// longest-prefix match over the map contents.
func SnapshotView(snap map[string]map[netip.Prefix]fib.Entry) View {
	return func(router string, dst netip.Addr) (fib.Entry, bool) {
		var best fib.Entry
		bits := -1
		for p, e := range snap[router] {
			if p.Contains(dst) && p.Bits() > bits {
				best, bits = e, p.Bits()
			}
		}
		return best, bits >= 0
	}
}

// Outcome classifies a walk.
type Outcome uint8

// Walk outcomes. The first four are per-path outcomes; the last two are
// aggregates only a symbolic (multi-branch) walk can produce. Aggregation
// precedence is Looped > PartialBlackhole > Stuck > Dropped >
// DivergentEgress > Delivered.
const (
	Delivered Outcome = iota
	Dropped           // no matching route
	Looped            // revisited a router
	Stuck             // next hop unresolvable to a neighbor
	// DivergentEgress: every ECMP member path delivers, but the paths exit
	// at more than one egress router.
	DivergentEgress
	// PartialBlackhole: some ECMP member paths deliver while others drop
	// or get stuck.
	PartialBlackhole
)

func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Looped:
		return "looped"
	case DivergentEgress:
		return "divergent-egress"
	case PartialBlackhole:
		return "partial-blackhole"
	default:
		return "stuck"
	}
}

// Walk is the result of forwarding one packet — concretely along a single
// path, or symbolically over every ECMP branch at once.
type Walk struct {
	Dst     netip.Addr
	Outcome Outcome
	// Path lists the routers explored, in DFS pre-order starting at the
	// source. For concrete (branch-free) walks this is the hop sequence;
	// for symbolic walks it covers every router in the explored DAG — the
	// exact set whose FIB/link state the outcome depends on, which is what
	// walk caches key invalidation on.
	Path []string
	// Egress is the egress router, set when every path delivers at a
	// single egress (Outcome == Delivered).
	Egress string
	// Egresses lists the distinct delivered egress routers (sorted), set
	// for symbolic walks that branched.
	Egresses []string
	// Edges lists the explored forwarding DAG's edges in discovery order,
	// set for symbolic walks that branched. Waypoint evaluation uses it to
	// check that *every* member path traverses the waypoint.
	Edges [][2]string
	// Branches counts the routers whose next-hop set fanned out during the
	// exploration; 0 means the walk was a single concrete path.
	Branches int
}

func (w Walk) String() string {
	s := fmt.Sprintf("%s: %s [%s]", w.Dst, w.Outcome, strings.Join(w.Path, " -> "))
	if len(w.Egresses) > 1 {
		s += " egresses=" + strings.Join(w.Egresses, ",")
	}
	return s
}

// Expansion describes one router's forwarding behaviour for a destination:
// the terminal branches that end at this router, plus the distinct set of
// adjacent routers its ECMP members forward to.
type Expansion struct {
	// Delivered is set when the packet terminates here: the destination is
	// local, the matching entry is directly attached, or a member next hop
	// resolves back to this router.
	Delivered bool
	// Dropped is set when no route matches (exclusive of all other fields).
	Dropped bool
	// Stuck is set when some member next hop fails to resolve to any
	// adjacent router.
	Stuck bool
	// Nexts lists the distinct adjacent routers the remaining members
	// forward to, sorted.
	Nexts []string
}

// terminal reports whether the expansion has no onward branches.
func (e Expansion) terminal() bool { return len(e.Nexts) == 0 }

// branchOption is one concrete choice at a router: either a terminal
// outcome or a forward to one next router. Options are ordered
// deterministically (terminals first, then sorted nexts) so a choice index
// sequence identifies one concrete path through the DAG.
type branchOption struct {
	terminal bool
	outcome  Outcome // valid when terminal
	next     string  // valid when !terminal
}

// options expands the Expansion into its ordered concrete branches.
func (e Expansion) options() []branchOption {
	out := make([]branchOption, 0, len(e.Nexts)+2)
	if e.Dropped {
		out = append(out, branchOption{terminal: true, outcome: Dropped})
	}
	if e.Delivered {
		out = append(out, branchOption{terminal: true, outcome: Delivered})
	}
	if e.Stuck {
		out = append(out, branchOption{terminal: true, outcome: Stuck})
	}
	for _, nx := range e.Nexts {
		out = append(out, branchOption{next: nx})
	}
	return out
}

// ExpandFunc supplies a router's expansion for the walk's destination.
type ExpandFunc func(router string) Expansion

// SymbolicWalk drives the shared DFS over per-router expansions: it
// explores every branch once (routers already explored are not re-expanded
// — the DAG property that makes a symbolic walk linear in routers rather
// than exponential in paths), detects cycles via back edges, and folds the
// terminal outcomes into the aggregate taxonomy. Both the central walker
// and the distributed set-walk finalization call this, so their results
// are byte-identical by construction.
func SymbolicWalk(src string, dst netip.Addr, maxHops int, expand ExpandFunc) Walk {
	if maxHops <= 0 {
		maxHops = 64
	}
	w := Walk{Dst: dst}
	var (
		anyDelivered, anyDropped, anyStuck bool
		loopFound                          bool
		loopClose                          string
		egress                             = map[string]bool{}
		visited                            = map[string]bool{}
		onPath                             = map[string]bool{}
	)
	var dfs func(r string, depth int)
	dfs = func(r string, depth int) {
		visited[r], onPath[r] = true, true
		w.Path = append(w.Path, r)
		ex := expand(r)
		if ex.Delivered {
			anyDelivered = true
			egress[r] = true
		}
		if ex.Dropped {
			anyDropped = true
		}
		if ex.Stuck {
			anyStuck = true
		}
		// A branch point is any router with more than one concrete option —
		// multiple next hops, or a terminal flag alongside a forward.
		opts := len(ex.Nexts)
		for _, f := range [...]bool{ex.Delivered, ex.Dropped, ex.Stuck} {
			if f {
				opts++
			}
		}
		if opts > 1 {
			w.Branches++
		}
		for _, nx := range ex.Nexts {
			w.Edges = append(w.Edges, [2]string{r, nx})
			switch {
			case onPath[nx]:
				// Back edge: a concrete member path revisits nx.
				if !loopFound {
					loopFound, loopClose = true, nx
				}
			case visited[nx]:
				// Cross edge into an already-explored subgraph: no new
				// work, and (DFS back-edge theorem) no new cycle.
			case depth >= maxHops:
				// Hop budget exhausted: treat as a forwarding loop, as the
				// concrete walker always has.
				loopFound = true
			default:
				dfs(nx, depth+1)
			}
		}
		onPath[r] = false
	}
	dfs(src, 1)

	switch {
	case loopFound:
		w.Outcome = Looped
		if loopClose != "" {
			w.Path = append(w.Path, loopClose)
		}
	case anyDelivered && (anyDropped || anyStuck):
		w.Outcome = PartialBlackhole
	case anyStuck:
		w.Outcome = Stuck
	case anyDropped:
		w.Outcome = Dropped
	case len(egress) > 1:
		w.Outcome = DivergentEgress
	case len(egress) == 1:
		w.Outcome = Delivered
		for r := range egress {
			w.Egress = r
		}
	default:
		// Unreachable: every DFS leaf is terminal or closes a cycle.
		w.Outcome = Stuck
	}
	if w.Branches > 0 {
		w.Egresses = make([]string, 0, len(egress))
		for r := range egress {
			w.Egresses = append(w.Egresses, r)
		}
		sort.Strings(w.Egresses)
	} else {
		// Concrete path: keep the legacy single-path representation
		// (Egresses/Edges nil) so unbranched walks are byte-identical to
		// the pre-ECMP walker's.
		w.Edges = nil
	}
	return w
}

// AggregateProbes folds per-path probe outcomes into the symbolic
// taxonomy: the outcome a symbolic walk must report if those are exactly
// its concrete member paths. The symbolic-vs-probe differential oracle
// pins SymbolicWalk against this independent aggregation.
func AggregateProbes(walks []Walk) (Outcome, []string) {
	var (
		anyDelivered, anyDropped, anyStuck, anyLoop bool
		egress                                      = map[string]bool{}
	)
	for _, w := range walks {
		switch w.Outcome {
		case Delivered:
			anyDelivered = true
			egress[w.Egress] = true
		case Dropped:
			anyDropped = true
		case Stuck:
			anyStuck = true
		case Looped:
			anyLoop = true
		}
	}
	egresses := make([]string, 0, len(egress))
	for r := range egress {
		egresses = append(egresses, r)
	}
	sort.Strings(egresses)
	switch {
	case anyLoop:
		return Looped, egresses
	case anyDelivered && (anyDropped || anyStuck):
		return PartialBlackhole, egresses
	case anyStuck:
		return Stuck, egresses
	case anyDropped:
		return Dropped, egresses
	case len(egresses) > 1:
		return DivergentEgress, egresses
	default:
		return Delivered, egresses
	}
}

// Walker forwards packets over a topology using a FIB view.
type Walker struct {
	Topo *topology.Topology
	View View
	// MaxHops bounds walks; defaults to 64.
	MaxHops int
	// BugDropEcmpBranch is an injectable fault for the symbolic-vs-probe
	// differential oracle: when set, symbolic exploration silently ignores
	// the last member of every multi-way branch. Concrete probes are
	// unaffected, so the oracle must catch the divergence.
	BugDropEcmpBranch bool
}

// NewWalker builds a walker over the live tables of a topology.
func NewWalker(topo *topology.Topology, view View) *Walker {
	return &Walker{Topo: topo, View: view, MaxHops: 64}
}

// Expand computes router's forwarding expansion for dst: the shared
// forwarding step (Local.Step) applied to what the topology and the FIB
// view say that router knows. An unknown router is a stuck branch.
func (w *Walker) Expand(router string, dst netip.Addr) Expansion {
	r := w.Topo.Router(router)
	if r == nil {
		return Expansion{Stuck: true}
	}
	l := Local{
		Router: router, Loopback: r.Loopback, Ifaces: IfacesOf(r),
		Lookup: func(a netip.Addr) (fib.Entry, bool) { return w.View(router, a) },
	}
	return l.Step(dst).Expansion
}

// Forward walks a packet for dst starting at source router src. FIBs with
// multipath entries make this a symbolic walk over every ECMP branch;
// single-path FIBs degrade to exactly the classic hop-by-hop walk.
func (w *Walker) Forward(src string, dst netip.Addr) Walk {
	return SymbolicWalk(src, dst, w.MaxHops, func(r string) Expansion {
		ex := w.Expand(r, dst)
		if w.BugDropEcmpBranch && len(ex.Nexts) > 1 {
			ex.Nexts = ex.Nexts[:len(ex.Nexts)-1]
		}
		return ex
	})
}

// ForwardChoices walks one *concrete* path: at every router whose
// expansion offers more than one branch, the next entry of choices picks
// the branch (out-of-range indexes clamp; exhausted choices pick the first
// branch). This is the single-next-hop probe walker the symbolic-vs-probe
// oracle replays enumerated member paths through.
func (w *Walker) ForwardChoices(src string, dst netip.Addr, choices []int) Walk {
	maxHops := w.MaxHops
	if maxHops <= 0 {
		maxHops = 64
	}
	walk := Walk{Dst: dst, Path: []string{src}}
	visited := map[string]bool{src: true}
	cur := src
	ci := 0
	for hop := 0; hop < maxHops; hop++ {
		opts := w.Expand(cur, dst).options()
		if len(opts) == 0 {
			walk.Outcome = Stuck
			return walk
		}
		pick := 0
		if len(opts) > 1 {
			if ci < len(choices) {
				pick = choices[ci]
			}
			ci++
			if pick < 0 {
				pick = 0
			}
			if pick >= len(opts) {
				pick = len(opts) - 1
			}
		}
		o := opts[pick]
		if o.terminal {
			walk.Outcome = o.outcome
			if o.outcome == Delivered {
				walk.Egress = cur
			}
			return walk
		}
		if visited[o.next] {
			walk.Path = append(walk.Path, o.next)
			walk.Outcome = Looped
			return walk
		}
		visited[o.next] = true
		walk.Path = append(walk.Path, o.next)
		cur = o.next
	}
	walk.Outcome = Looped // exceeded hop budget: treat as a forwarding loop
	return walk
}

// ProbeWalk couples one enumerated concrete path with the branch choices
// that select it, so a probe walker can re-execute exactly that path.
type ProbeWalk struct {
	Walk    Walk
	Choices []int
}

// ConcretePaths enumerates every concrete single-next-hop path through the
// symbolic walk's DAG (per-path loop detection, same hop budget), up to
// limit paths (0 = no limit). The enumeration is independent of
// SymbolicWalk's traversal — it branches per path rather than exploring
// the DAG once — which is what makes the symbolic-vs-probe comparison a
// real differential.
func (w *Walker) ConcretePaths(src string, dst netip.Addr, limit int) []ProbeWalk {
	maxHops := w.MaxHops
	if maxHops <= 0 {
		maxHops = 64
	}
	var out []ProbeWalk
	full := func() bool { return limit > 0 && len(out) >= limit }
	emit := func(path []string, choices []int, outcome Outcome, egress string) {
		if full() {
			return
		}
		out = append(out, ProbeWalk{
			Walk: Walk{
				Dst: dst, Outcome: outcome, Egress: egress,
				Path: append([]string(nil), path...),
			},
			Choices: append([]int(nil), choices...),
		})
	}
	var rec func(cur string, path []string, visited map[string]bool, choices []int)
	rec = func(cur string, path []string, visited map[string]bool, choices []int) {
		if full() {
			return
		}
		if len(path) > maxHops {
			emit(path, choices, Looped, "")
			return
		}
		opts := w.Expand(cur, dst).options()
		if len(opts) == 0 {
			emit(path, choices, Stuck, "")
			return
		}
		for i, o := range opts {
			c := choices
			if len(opts) > 1 {
				c = append(choices, i)
			}
			switch {
			case o.terminal:
				eg := ""
				if o.outcome == Delivered {
					eg = cur
				}
				emit(path, c, o.outcome, eg)
			case visited[o.next]:
				emit(append(path, o.next), c, Looped, "")
			default:
				visited[o.next] = true
				rec(o.next, append(path, o.next), visited, c)
				delete(visited, o.next)
			}
			if full() {
				return
			}
		}
	}
	rec(src, []string{src}, map[string]bool{src: true}, nil)
	return out
}

// ForwardPrefix walks a representative address (the first usable host) of a
// prefix.
func (w *Walker) ForwardPrefix(src string, p netip.Prefix) Walk {
	return w.Forward(src, Representative(p))
}

// Representative picks a stable probe address inside p (the .1 host, or the
// network address for host routes).
func Representative(p netip.Prefix) netip.Addr {
	if p.IsSingleIP() {
		return p.Addr()
	}
	a := p.Masked().Addr()
	s := a.AsSlice()
	s[len(s)-1]++
	out, _ := netip.AddrFromSlice(s)
	return out
}
