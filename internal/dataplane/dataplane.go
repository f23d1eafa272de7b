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
	"sync"
	"sync/atomic"

	"hbverify/internal/fib"
	"hbverify/internal/topology"
	"hbverify/internal/trie"
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

// SnapshotView adapts static per-router FIBs to a View.
func SnapshotView(snap map[string]*trie.Trie[fib.Entry]) View {
	return func(router string, dst netip.Addr) (fib.Entry, bool) {
		e, _, ok := snap[router].Lookup(dst)
		return e, ok
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

// MaxHops bounds the depth of every production walk: central, distributed
// and probe walks alike. Deeper paths are reported as forwarding loops.
const MaxHops = 64

// Walker forwards packets over a topology using a FIB view. Concurrent
// walks are safe: the walker's only state is its per-router cache, which
// readers consult without a lock.
type Walker struct {
	Topo *topology.Topology
	View View

	// locals maps a router to its slot in the cache of what the router
	// knows (its Local), stamped with the topology generation it was built
	// at. The map is replaced, never written, so a read needs no lock; mu
	// serializes adding a router to it.
	locals atomic.Pointer[map[string]*localSlot]
	mu     sync.Mutex
}

// localSlot holds one router's latest cached Local.
type localSlot struct{ cur atomic.Pointer[cachedLocal] }

// cachedLocal is a router's Local as of one topology generation.
type cachedLocal struct {
	gen uint64
	Local
}

// NewWalker builds a walker over the live tables of a topology.
func NewWalker(topo *topology.Topology, view View) *Walker {
	return &Walker{Topo: topo, View: view}
}

// local returns what router knows — its sorted interfaces with their link
// state, and a FIB lookup bound to it — or nil for an unknown router. The
// entry is reused until the topology's generation moves; the generation is
// read before the interfaces are, so a change racing a rebuild leaves the
// entry stamped stale.
func (w *Walker) local(router string) *Local {
	gen := w.Topo.Generation()
	slot := w.slot(router)
	if slot == nil {
		return nil
	}
	if c := slot.cur.Load(); c != nil && c.gen == gen {
		return &c.Local
	}
	r := w.Topo.Router(router)
	c := &cachedLocal{gen: gen, Local: Local{
		Router: router, Loopback: r.Loopback, Ifaces: IfacesOf(r),
		Lookup: func(a netip.Addr) (fib.Entry, bool) { return w.View(router, a) },
	}}
	slot.cur.Store(c)
	return &c.Local
}

// slot returns router's cache slot, adding an empty one (by copying the
// slot map) the first time a router the topology knows is expanded; nil
// for an unknown router.
func (w *Walker) slot(router string) *localSlot {
	if m := w.locals.Load(); m != nil {
		if slot := (*m)[router]; slot != nil {
			return slot
		}
	}
	if w.Topo.Router(router) == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var old map[string]*localSlot
	if m := w.locals.Load(); m != nil {
		old = *m
	}
	if slot := old[router]; slot != nil {
		return slot
	}
	m := make(map[string]*localSlot, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	slot := &localSlot{}
	m[router] = slot
	w.locals.Store(&m)
	return slot
}

// Expand computes router's forwarding expansion for dst: the shared
// forwarding step (Local.Step) applied to what the topology and the FIB
// view say that router knows. An unknown router is a stuck branch.
func (w *Walker) Expand(router string, dst netip.Addr) Expansion {
	l := w.local(router)
	if l == nil {
		return Expansion{Stuck: true}
	}
	return l.Step(dst).Expansion
}

// Forward walks a packet for dst starting at source router src. FIBs with
// multipath entries make this a symbolic walk over every ECMP branch;
// single-path FIBs degrade to exactly the classic hop-by-hop walk.
func (w *Walker) Forward(src string, dst netip.Addr) Walk {
	return SymbolicWalk(src, dst, MaxHops, func(r string) Expansion {
		return w.Expand(r, dst)
	})
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
		if len(path) > MaxHops {
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
