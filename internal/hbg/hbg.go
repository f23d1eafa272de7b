// Package hbg implements the happens-before graph (HBG) of §4.3: vertices
// are captured control-plane I/Os and directed edges are happens-before
// relationships. The graph answers the two questions the paper builds its
// system on: *provenance* (which I/Os led to this FIB update?) and *root
// cause* (which leaf inputs started the chain?).
//
// Graphs come from two sources: FromGroundTruth builds the oracle graph
// from the simulator's causal tags, and internal/hbr builds inferred graphs
// from observable I/O properties alone. Both produce the same structure, so
// every downstream consumer (snapshot consistency, repair, visualization)
// works with either.
//
// A Graph is safe for concurrent use: the incremental inference cache
// merges new edges into a shared graph while the parallel verifier and
// root-cause tracer may still be reading it, so every accessor takes the
// graph's reader lock and every mutator its writer lock.
package hbg

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hbverify/internal/capture"
)

// Edge is a happens-before pair: From happens before To.
type Edge struct{ From, To uint64 }

// EdgeConf is an edge with its inference confidence in (0, 1].
type EdgeConf struct {
	From, To uint64
	Conf     float64
}

// vertex is one captured I/O with its adjacency. io is never written once
// the vertex is in Graph.verts — a replacement is a new vertex — so a pointer
// to it stays valid outside the lock; in and out change under the writer lock,
// and only through Graph.own.
type vertex struct {
	io capture.IO
	// known is false for a placeholder, the endpoint of an edge whose
	// AddNode has not arrived: it carries edges but is never reported.
	known bool
	// gen is the generation of the graph that made this vertex. Without lets
	// two graphs hold one vertex; whoever writes it first copies it (own).
	gen     uint64
	in, out []uint64
}

// generations hands every graph, and every graph that starts sharing its
// vertices, a generation no vertex made before carries.
var generations atomic.Uint64

// Graph is a happens-before graph. The zero value is not usable; call New.
type Graph struct {
	mu sync.RWMutex
	// gen stamps the vertices this graph makes; a vertex with another gen
	// may be shared with another graph and is read-only here (see own).
	gen uint64
	// verts holds every vertex once, behind a pointer, in ascending ID
	// order. Capture IDs are dense and append-ordered, so insertion is an
	// append, lookup a guess corrected across any gaps, and Nodes a walk.
	// Each vertex is copied in: one that pointed into a capture.Log segment
	// would pin the segments CompactBefore drops in order to free them.
	verts []*vertex
	nodes int // known vertices
	edges int
	// conf annotates edges with the inference confidence (§4.2: "a
	// statistical confidence attached to each inferred HBR"). Ground-truth
	// and rule-matched edges carry confidence 1 and are not stored.
	conf map[Edge]float64
	// inherited holds root-cause I/Os folded in by PruneBefore: when a
	// vertex's ancestry is compacted away, its root causes are snapshotted
	// here so RootCauses keeps answering exactly as before the prune.
	inherited map[uint64][]capture.IO
	// prunedBelow is the compaction floor: vertices with smaller IDs have
	// been pruned (their edges folded into inherited root sets).
	prunedBelow uint64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{gen: generations.Add(1), conf: map[Edge]float64{}, inherited: map[uint64][]capture.IO{}}
}

// pos returns id's index in verts, or where it would be inserted.
func (g *Graph) pos(id uint64) (int, bool) {
	n := len(g.verts)
	if n == 0 || id <= g.verts[0].io.ID {
		return 0, n > 0 && g.verts[0].io.ID == id
	}
	// IDs ascend strictly, so id sits at most id-first slots in, and
	// exactly there when the graph is dense up to it.
	hi := n - 1
	if d := id - g.verts[0].io.ID; d < uint64(hi) {
		hi = int(d)
	}
	if at := g.verts[hi].io.ID; at == id {
		return hi, true
	} else if at < id {
		return n, false
	}
	i := sort.Search(hi, func(i int) bool { return g.verts[i].io.ID >= id })
	return i, g.verts[i].io.ID == id
}

func (g *Graph) find(id uint64) *vertex {
	if i, ok := g.pos(id); ok {
		return g.verts[i]
	}
	return nil
}

// own returns verts[i] for writing its adjacency. A vertex of another
// generation may be in a second graph's verts too (Without), so it is first
// replaced by a private copy; a reader's old pointer stays unwritten.
func (g *Graph) own(i int) *vertex {
	v := g.verts[i]
	if v.gen != g.gen {
		c := *v
		c.gen, c.in, c.out = g.gen, slices.Clone(v.in), slices.Clone(v.out)
		v = &c
		g.verts[i] = v
	}
	return v
}

// slot returns id's vertex for writing, inserting a placeholder if there is
// none.
func (g *Graph) slot(id uint64) *vertex {
	i, ok := g.pos(id)
	if !ok {
		g.verts = slices.Insert(g.verts, i, &vertex{io: capture.IO{ID: id}, gen: g.gen})
	}
	return g.own(i)
}

// AddNode inserts (or replaces) a vertex.
func (g *Graph) AddNode(io capture.IO) {
	g.mu.Lock()
	g.addNodeLocked(&io)
	g.mu.Unlock()
}

// addNodesLocked copies the view's events in as vertices.
func (g *Graph) addNodesLocked(ios capture.View) {
	g.verts = slices.Grow(g.verts, ios.Len())
	for i := 0; i < ios.Len(); i++ {
		g.addNodeLocked(ios.At(i))
	}
}

// addNodeLocked copies io in as a vertex, less the simulator's oracle fields
// (Causes, TrueTime): a vertex holds what a router could have logged, so no
// graph carries ground truth, however its events were read. An ID above
// every present one — the order a capture log produces — appends; any other
// shifts the pointers above it.
func (g *Graph) addNodeLocked(io *capture.IO) {
	v := &vertex{io: *io, known: true, gen: g.gen}
	v.io.Causes, v.io.TrueTime = nil, 0
	j, ok := g.pos(v.io.ID)
	if !ok {
		g.verts = slices.Insert(g.verts, j, v)
		g.nodes++
		return
	}
	old := g.own(j)
	if !old.known {
		g.nodes++
	}
	v.in, v.out = old.in, old.out
	g.verts[j] = v
}

// AddEdge inserts a happens-before edge with confidence 1. Unknown
// endpoints are tolerated (the vertex may arrive later during distributed
// construction); duplicate edges are ignored.
func (g *Graph) AddEdge(from, to uint64) { g.AddEdgeConf(from, to, 1) }

// AddEdgeConf inserts an edge with an explicit confidence in (0, 1]; a
// duplicate keeps the larger confidence.
func (g *Graph) AddEdgeConf(from, to uint64, conf float64) {
	g.mu.Lock()
	g.addEdgeConfLocked(from, to, conf)
	g.mu.Unlock()
}

func (g *Graph) addEdgeConfLocked(from, to uint64, conf float64) {
	if from == to || from == 0 || to == 0 {
		return
	}
	t, e := g.slot(to), Edge{from, to}
	if slices.Contains(t.in, from) {
		if conf <= g.confidenceLocked(e) {
			return
		}
		delete(g.conf, e)
	} else {
		f := g.slot(from)
		t.in, f.out = append(t.in, from), append(f.out, to)
		g.edges++
	}
	if conf != 1 {
		g.conf[e] = conf
	}
}

// confidenceLocked is the confidence of an edge known to exist.
func (g *Graph) confidenceLocked(e Edge) float64 {
	if c, ok := g.conf[e]; ok {
		return c
	}
	return 1
}

// Batch is one bulk mutation, applied under a single acquisition of the
// writer lock so readers see the graph before it or after it.
type Batch struct {
	// Nodes are copied in as vertices (replacing same-ID ones).
	Nodes capture.View
	// Reset names vertices that lose their in-edges before Edges are
	// added: afterwards their parents are exactly what Edges gives them.
	Reset []uint64
	// Edges are added list by list, in order, as AddEdgeConf would.
	Edges [][]EdgeConf
}

// Apply performs b.
func (g *Graph) Apply(b Batch) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.applyLocked(b)
}

func (g *Graph) applyLocked(b Batch) {
	g.addNodesLocked(b.Nodes)
	for _, id := range b.Reset {
		i, ok := g.pos(id)
		if !ok || len(g.verts[i].in) == 0 {
			continue
		}
		v := g.own(i)
		for _, from := range v.in {
			f := g.slot(from)
			f.out = dropID(f.out, id)
			delete(g.conf, Edge{from, id})
		}
		g.edges -= len(v.in)
		v.in = nil
	}
	for _, es := range b.Edges {
		for i := range es {
			g.addEdgeConfLocked(es[i].From, es[i].To, es[i].Conf)
		}
	}
}

func dropID(ids []uint64, id uint64) []uint64 {
	return slices.DeleteFunc(ids, func(c uint64) bool { return c == id })
}

// Without returns g minus the hidden vertices (IDs ascending) and every edge
// touching one, with b then applied to the result; g itself reads as before.
// It costs a pointer per vertex plus a copy of each vertex whose adjacency
// the removal or b changes. Every other vertex is shared between the two
// graphs, which is safe because both take a new generation here: whichever
// next writes a shared vertex copies it first (own).
func (g *Graph) Without(hidden []uint64, b Batch) *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gen = generations.Add(1)
	d := &Graph{gen: generations.Add(1), verts: make([]*vertex, 0, len(g.verts)),
		nodes: g.nodes, edges: g.edges, prunedBelow: g.prunedBelow,
		conf: maps.Clone(g.conf), inherited: maps.Clone(g.inherited)}
	gone := func(id uint64) bool {
		_, ok := slices.BinarySearch(hidden, id)
		return ok
	}
	var removed []*vertex
	for _, v := range g.verts {
		if gone(v.io.ID) {
			removed = append(removed, v)
		} else {
			d.verts = append(d.verts, v)
		}
	}
	for _, h := range removed {
		id := h.io.ID
		if h.known {
			d.nodes--
		}
		delete(d.inherited, id)
		d.edges -= len(h.in)
		for _, from := range h.in {
			delete(d.conf, Edge{from, id})
			if !gone(from) {
				f := d.slot(from)
				f.out = dropID(f.out, id)
			}
		}
		for _, to := range h.out {
			if gone(to) {
				continue // counted among to's in-edges
			}
			delete(d.conf, Edge{id, to})
			t := d.slot(to)
			t.in = dropID(t.in, id)
			d.edges--
		}
	}
	d.applyLocked(b)
	return d
}

// Node returns the vertex with the given ID.
func (g *Graph) Node(id uint64) (capture.IO, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if v := g.find(id); v != nil && v.known {
		return v.io, true
	}
	return capture.IO{}, false
}

// Nodes returns all vertices sorted by ID.
func (g *Graph) Nodes() []capture.IO {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]capture.IO, 0, g.nodes)
	for _, v := range g.verts {
		if v.known {
			out = append(out, v.io)
		}
	}
	return out
}

// Refs is Nodes without the copies: a pointer to every vertex, sorted by
// ID. The graph never modifies a vertex it has handed out, and neither may
// the caller.
func (g *Graph) Refs() []*capture.IO {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*capture.IO, 0, g.nodes)
	for _, v := range g.verts {
		if v.known {
			out = append(out, &v.io)
		}
	}
	return out
}

// refsAt appends the known vertices at the given positions to out.
func (g *Graph) refsAt(out []*capture.IO, at []int32) []*capture.IO {
	for _, p := range at {
		if v := g.verts[p]; v.known {
			out = append(out, &v.io)
		}
	}
	return out
}

func deref(refs []*capture.IO) []capture.IO {
	if len(refs) == 0 {
		return nil
	}
	out := make([]capture.IO, len(refs))
	for i, r := range refs {
		out[i] = *r
	}
	return out
}

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Edge, 0, g.edges)
	for _, v := range g.verts {
		at := len(out)
		for _, to := range v.out {
			out = append(out, Edge{v.io.ID, to})
		}
		slices.SortFunc(out[at:], func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
	}
	return out
}

// Confidence returns the edge's inference confidence, 0 if absent.
func (g *Graph) Confidence(from, to uint64) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if t := g.find(to); t == nil || !slices.Contains(t.in, from) {
		return 0
	}
	return g.confidenceLocked(Edge{from, to})
}

// HasEdge reports whether from→to exists.
func (g *Graph) HasEdge(from, to uint64) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	t := g.find(to)
	return t != nil && slices.Contains(t.in, from)
}

// Parents returns the direct happens-before predecessors of id, sorted.
func (g *Graph) Parents(id uint64) []uint64 { return g.adjacent(id, true) }

// Children returns the direct successors of id, sorted.
func (g *Graph) Children(id uint64) []uint64 { return g.adjacent(id, false) }

func (g *Graph) adjacent(id uint64, up bool) []uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	v := g.find(id)
	if v == nil {
		return nil
	}
	if up {
		return sortedIDs(v.in)
	}
	return sortedIDs(v.out)
}

func sortedIDs(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	slices.Sort(out)
	return out
}

// NodeCount reports the number of vertices.
func (g *Graph) NodeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes
}

// EdgeCount reports the number of edges.
func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges
}

// FromGroundTruth builds the oracle HBG from the simulator's causal tags.
func FromGroundTruth(ios []capture.IO) *Graph {
	g := New()
	g.addNodesLocked(capture.ViewOf(ios))
	for i := range ios {
		for _, c := range ios[i].Causes {
			if v := g.find(c); v != nil && v.known {
				g.addEdgeConfLocked(c, ios[i].ID, 1)
			}
		}
	}
	return g
}

// reach appends to out, and marks in seen, the positions of the vertices
// reachable from verts[start] — over in-edges when up, else out-edges —
// that seen does not already mark. out doubles as the work list, so callers
// that share seen across starts pay for each part of the graph once.
func (g *Graph) reach(start int, up bool, seen []bool, out []int32) []int32 {
	v := g.verts[start]
	for next := len(out); ; next++ {
		adj := v.out
		if up {
			adj = v.in
		}
		for _, id := range adj {
			if j, ok := g.pos(id); ok && !seen[j] {
				seen[j] = true
				out = append(out, int32(j))
			}
		}
		if next == len(out) {
			return out
		}
		v = g.verts[out[next]]
	}
}

// Provenance returns every ancestor of id (the I/Os that happened before
// it, transitively), sorted by ID. The paper uses this to explain a
// problematic FIB update.
func (g *Graph) Provenance(id uint64) []capture.IO { return deref(g.Ancestry([]uint64{id})) }

// Ancestry is Provenance for many vertices in one O(V+E) traversal: root by
// root, in the order given, the ancestors no earlier root already reached,
// each group sorted by ID. The pointers obey the rule of Refs.
func (g *Graph) Ancestry(roots []uint64) []*capture.IO {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*capture.IO
	var reached []int32
	seen := make([]bool, len(g.verts))
	for _, id := range roots {
		if i, ok := g.pos(id); ok {
			reached = g.reach(i, true, seen, reached[:0])
			slices.Sort(reached)
			out = g.refsAt(out, reached)
		}
	}
	return out
}

// RootCauses returns the leaf ancestors of id: provenance vertices with no
// parents of their own (§6: "any leaf nodes we encounter represent the
// root cause(s) of the event"). If id itself has no parents it is its own
// root cause. Ancestry folded away by PruneBefore still answers: a vertex
// whose parents were pruned contributes its inherited root set instead of
// posing as a root itself.
func (g *Graph) RootCauses(id uint64) []capture.IO {
	g.mu.RLock()
	defer g.mu.RUnlock()
	roots, ancestors, _ := g.rootsLocked(id, make([]bool, len(g.verts)), nil)
	if ancestors == 0 && len(roots) == 0 {
		if v := g.find(id); v != nil && v.known {
			return []capture.IO{v.io}
		}
	}
	return roots
}

// rootsLocked collects id's root causes, sorted by ID: its own inherited
// set, each ancestor's (the walk continues through any parents such an
// ancestor still has) and every ancestor without parents. It also counts
// id's known ancestors and returns the positions it marked in seen.
func (g *Graph) rootsLocked(id uint64, seen []bool, reached []int32) ([]capture.IO, int, []int32) {
	roots := append([]capture.IO(nil), g.inherited[id]...)
	ancestors := 0
	if i, ok := g.pos(id); ok {
		reached = g.reach(i, true, seen, reached[:0])
		for _, p := range reached {
			v := g.verts[p]
			if !v.known {
				continue
			}
			ancestors++
			if inh := g.inherited[v.io.ID]; len(inh) > 0 {
				roots = append(roots, inh...)
			} else if len(v.in) == 0 {
				roots = append(roots, v.io)
			}
		}
	}
	return sortRoots(roots), ancestors, reached
}

// sortRoots orders a root set by ID and drops repeats.
func sortRoots(roots []capture.IO) []capture.IO {
	slices.SortStableFunc(roots, func(a, b capture.IO) int { return cmp.Compare(a.ID, b.ID) })
	return slices.CompactFunc(roots, func(a, b capture.IO) bool { return a.ID == b.ID })
}

// PruneBefore removes every vertex with ID < id — and every edge touching
// one — after folding the pruned ancestry into inherited root-cause sets:
// for each retained vertex with at least one pruned parent, its full
// RootCauses set is snapshotted first, so RootCauses answers identically
// before and after the prune. Compaction (internal/stream) calls this in
// lock-step with capture.Log.CompactBefore to bound graph memory over an
// unbounded event stream.
func (g *Graph) PruneBefore(id uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id <= g.prunedBelow {
		return
	}
	below := func(p uint64) bool { return p < id }
	k, _ := g.pos(id)
	// Snapshot root causes for every retained vertex that loses a parent,
	// all of them before any is stored: a fold reads its ancestors' sets.
	type fold struct {
		id    uint64
		roots []capture.IO
	}
	var folds []fold
	var reached []int32
	seen := make([]bool, len(g.verts))
	for _, v := range g.verts[k:] {
		if !slices.ContainsFunc(v.in, below) {
			continue
		}
		var roots []capture.IO
		roots, _, reached = g.rootsLocked(v.io.ID, seen, reached)
		for _, p := range reached {
			seen[p] = false
		}
		if len(roots) == 0 && v.known {
			roots = []capture.IO{v.io}
		}
		folds = append(folds, fold{v.io.ID, roots})
	}
	for _, f := range folds {
		g.inherited[f.id] = mergeRootSets(g.inherited[f.id], f.roots)
	}
	// Drop pruned vertices, their edges, and their inherited sets. A reslice
	// would keep them reachable through the backing array: copy the survivors.
	for _, v := range g.verts[:k] {
		if v.known {
			g.nodes--
		}
		g.edges -= len(v.in)
		delete(g.inherited, v.io.ID)
	}
	g.verts = append(make([]*vertex, 0, len(g.verts)-k), g.verts[k:]...)
	for i, v := range g.verts {
		if !slices.ContainsFunc(v.in, below) && !slices.ContainsFunc(v.out, below) {
			continue
		}
		v = g.own(i)
		n := len(v.in)
		v.in, v.out = slices.DeleteFunc(v.in, below), slices.DeleteFunc(v.out, below)
		g.edges -= n - len(v.in)
	}
	for e := range g.conf {
		if e.From < id || e.To < id {
			delete(g.conf, e)
		}
	}
	g.prunedBelow = id
}

// mergeRootSets unions two ID-sorted root sets, deduplicating by ID.
func mergeRootSets(a, b []capture.IO) []capture.IO {
	if len(a) == 0 {
		return b
	}
	return sortRoots(append(append(make([]capture.IO, 0, len(a)+len(b)), a...), b...))
}

// PrunedBelow reports the compaction floor: vertices with smaller IDs have
// been pruned away (0 = never pruned).
func (g *Graph) PrunedBelow() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.prunedBelow
}

// InheritedRoots returns the snapshotted root-cause set vertex id acquired
// through pruning, nil if none.
func (g *Graph) InheritedRoots(id uint64) []capture.IO {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]capture.IO(nil), g.inherited[id]...)
}

// Descendants returns every vertex reachable from id (the I/Os the event
// led to), sorted by ID.
func (g *Graph) Descendants(id uint64) []capture.IO {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.pos(id)
	if !ok {
		return nil
	}
	reached := g.reach(i, false, make([]bool, len(g.verts)), nil)
	slices.Sort(reached)
	return deref(g.refsAt(nil, reached))
}

// Subgraph returns the per-router happens-before subgraph (§5: each router
// can store its own subgraph): vertices at the router plus edges between
// them; cross-router edges are dropped.
func (g *Graph) Subgraph(router string) *Graph {
	sub := New()
	g.mu.RLock()
	defer g.mu.RUnlock()
	local := func(v *vertex) bool { return v != nil && v.known && v.io.Router == router }
	for _, v := range g.verts {
		if local(v) {
			sub.verts = append(sub.verts, &vertex{io: v.io, known: true, gen: sub.gen})
		}
	}
	sub.nodes = len(sub.verts)
	for _, v := range g.verts {
		for _, from := range v.in {
			if local(v) && local(g.find(from)) {
				sub.addEdgeConfLocked(from, v.io.ID, g.confidenceLocked(Edge{from, v.io.ID}))
			}
		}
	}
	return sub
}

// Merge folds other's vertices and edges into g (distributed HBG assembly).
// It reads other under one acquisition of its lock — a consistent snapshot —
// and holds g's writer lock for the whole merge, so readers observe the old
// graph or the new one, never a half-merged one. Vertices g has are kept.
func (g *Graph) Merge(other *Graph) {
	other.mu.RLock()
	var nodes []capture.IO
	edges := make([]EdgeConf, 0, other.edges)
	for _, v := range other.verts {
		if v.known {
			nodes = append(nodes, v.io)
		}
		for _, from := range v.in {
			edges = append(edges, EdgeConf{from, v.io.ID, other.confidenceLocked(Edge{from, v.io.ID})})
		}
	}
	inherited := maps.Clone(other.inherited) // a stored root set is never modified
	other.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	nodes = slices.DeleteFunc(nodes, func(io capture.IO) bool {
		v := g.find(io.ID)
		return v != nil && v.known
	})
	g.applyLocked(Batch{Nodes: capture.ViewOf(nodes), Edges: [][]EdgeConf{edges}})
	for id, roots := range inherited {
		g.inherited[id] = mergeRootSets(g.inherited[id], roots)
	}
}

// TopoOrder returns a topological order of the vertices, or an error if
// the graph has a cycle (which would mean the inferred "happens-before"
// relation is inconsistent).
func (g *Graph) TopoOrder() ([]uint64, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	indeg := make([]int, len(g.verts))
	var ready []int // positions, kept ascending: the smallest ID goes next
	for i, v := range g.verts {
		if indeg[i] = len(v.in); indeg[i] == 0 && v.known {
			ready = append(ready, i)
		}
	}
	var order []uint64
	for len(ready) > 0 {
		v := g.verts[ready[0]]
		ready = ready[1:]
		order = append(order, v.io.ID)
		for _, c := range v.out {
			j, _ := g.pos(c)
			if indeg[j]--; indeg[j] == 0 && g.verts[j].known {
				ready = append(ready, j)
			}
		}
		slices.Sort(ready)
	}
	if len(order) != g.nodes {
		return nil, fmt.Errorf("hbg: cycle detected (%d of %d ordered)", len(order), g.nodes)
	}
	return order, nil
}

// DOT renders the graph in Graphviz format, one cluster per router, in the
// style of the paper's Fig. 4.
func (g *Graph) DOT() string {
	nodes := g.Nodes()
	edges := g.Edges()
	var b strings.Builder
	b.WriteString("digraph hbg {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	byRouter := map[string][]capture.IO{}
	for _, io := range nodes {
		byRouter[io.Router] = append(byRouter[io.Router], io)
	}
	routers := make([]string, 0, len(byRouter))
	for r := range byRouter {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	for i, r := range routers {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=%q;\n", i, r)
		for _, io := range byRouter[r] {
			fmt.Fprintf(&b, "    n%d [label=%q];\n", io.ID, io.String())
		}
		b.WriteString("  }\n")
	}
	for _, e := range edges {
		if c := g.Confidence(e.From, e.To); c < 1 {
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, label=\"%.2f\"];\n", e.From, e.To, c)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Text renders a human-readable listing: each vertex with its parents.
func (g *Graph) Text() string {
	var b strings.Builder
	for _, io := range g.Nodes() {
		fmt.Fprintf(&b, "#%d %s", io.ID, io)
		if ps := g.Parents(io.ID); len(ps) > 0 {
			b.WriteString("  <-")
			for _, p := range ps {
				fmt.Fprintf(&b, " #%d", p)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
