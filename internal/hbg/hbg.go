// Package hbg implements the happens-before graph (HBG) of §4.3: vertices
// are captured control-plane I/Os and directed edges are happens-before
// relationships. The graph answers the two questions the paper builds its
// system on: *provenance* (which I/Os led to this FIB update?) and *root
// cause* (which leaf inputs started the chain?).
//
// Graphs are built by internal/hbr from observable I/O properties alone;
// the tests also build oracle graphs from the simulator's causal tags
// (FromGroundTruth in this package's tests). Both have the same structure,
// so every downstream consumer (repair, visualization) works with either.
//
// A vertex points at its event where the event already lives — the capture
// log's segment or the slice inference read, a decoded checkpoint's event —
// instead of holding a copy, so a graph over a log costs its adjacency, not
// a second copy of the window. Those events are as captured, so the
// simulator's oracle fields (Causes, TrueTime) are stripped from every event
// that leaves the graph by value: no graph hands out ground truth.
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

// vertex is one captured I/O with its adjacency. io points at the event
// where it lives: a capture.Log segment or the caller's slice for an inferred
// graph, the decoded event for a checkpoint's, and an event of its own for
// AddNode and a placeholder. Nobody writes through io — a replacement is a
// new vertex — so it stays valid outside the lock; in and out change under
// the writer lock, and only through Graph.own. A batch's vertices share one
// slab and their lists one arena (Apply), which live while any of them is
// reachable, so a vertex its graph owns is zeroed when it is pruned or
// replaced: a dead slot pins no event.
type vertex struct {
	io *capture.IO
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
	// A vertex that points into a capture.Log segment pins it; compaction
	// prunes the graph in step with the log's CompactBefore (PruneBefore),
	// so no kept vertex points into an evicted segment.
	verts []*vertex
	nodes int // known vertices
	edges int
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
	return &Graph{gen: generations.Add(1), inherited: map[uint64][]capture.IO{}}
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
		g.verts = slices.Insert(g.verts, i, &vertex{io: &capture.IO{ID: id}, gen: g.gen})
	}
	return g.own(i)
}

// AddNode inserts (or replaces) a vertex, which points at its own copy of io.
func (g *Graph) AddNode(io capture.IO) {
	g.mu.Lock()
	g.addNodeLocked(&io)
	g.mu.Unlock()
}

// addNodesLocked adds the view's events as vertices that point at them, all
// from one slab. It returns the index in verts from which on every vertex is
// new in this batch, in ID order, with no edges yet: the events that landed
// above every present ID, the order a capture log produces. An event that
// landed below one shifts the vertices above it, so then it returns
// len(verts) and names none.
func (g *Graph) addNodesLocked(ios capture.View) int {
	g.verts = slices.Grow(g.verts, ios.Len())
	fresh, shifted := len(g.verts), false
	slab := make([]vertex, ios.Len())
	for i := range slab {
		slab[i] = vertex{io: ios.At(i), known: true, gen: g.gen}
		shifted = g.putLocked(&slab[i]) || shifted
	}
	if shifted {
		return len(g.verts)
	}
	return fresh
}

// addNodeLocked adds a vertex that points at io, which nobody may write
// while the graph is in use.
func (g *Graph) addNodeLocked(io *capture.IO) {
	g.putLocked(&vertex{io: io, known: true, gen: g.gen})
}

// putLocked adds v, or replaces the vertex with its ID, which hands v its
// edges. An ID above every present one appends; any other shifts the
// pointers above it, which putLocked reports.
func (g *Graph) putLocked(v *vertex) (shifted bool) {
	j, ok := g.pos(v.io.ID)
	if !ok {
		g.verts = slices.Insert(g.verts, j, v)
		g.nodes++
		return j < len(g.verts)-1
	}
	old := g.own(j)
	if !old.known {
		g.nodes++
	}
	v.in, v.out = old.in, old.out
	*old = vertex{} // owned, so no other graph reads it; it may share a slab
	g.verts[j] = v
	return false
}

// carveLocked gives the vertices from verts[fresh] on, new in this batch,
// their in- and out-lists from one arena sized by the batch's edges that
// reach them; no other edge is counted.
func (g *Graph) carveLocked(fresh int, edges [][]Edge) {
	n := len(g.verts) - fresh
	if n == 0 {
		return
	}
	deg := make([]int32, 2*n) // in, out per new vertex
	total := 0
	count := func(id uint64, side int) {
		if i, ok := g.pos(id); ok && i >= fresh {
			deg[2*(i-fresh)+side]++
			total++
		}
	}
	for _, es := range edges {
		for _, e := range es {
			if e.From != e.To && e.From != 0 && e.To != 0 {
				count(e.To, 0)
				count(e.From, 1)
			}
		}
	}
	a := make(arena, total)
	for k, v := range g.verts[fresh:] {
		v.in, v.out = a.carve(int(deg[2*k])), a.carve(int(deg[2*k+1]))
	}
}

// arena hands out ID lists from one allocation.
type arena []uint64

// carve returns an empty list with room for n IDs, nil for none. Its
// capacity is n, so an append past that moves the list out of the arena
// instead of overwriting the next one.
func (a *arena) carve(n int) []uint64 {
	if n == 0 {
		return nil
	}
	s := (*a)[:0:n]
	*a = (*a)[n:]
	return s
}

// AddEdge inserts a happens-before edge. Unknown endpoints are tolerated
// (the vertex may arrive in a later batch); duplicate edges are ignored.
func (g *Graph) AddEdge(from, to uint64) {
	g.mu.Lock()
	g.addEdgeLocked(from, to)
	g.mu.Unlock()
}

func (g *Graph) addEdgeLocked(from, to uint64) {
	if from == to || from == 0 || to == 0 {
		return
	}
	t := g.slot(to)
	if slices.Contains(t.in, from) {
		return
	}
	f := g.slot(from)
	t.in, f.out = append(t.in, from), append(f.out, to)
	g.edges++
}

// Batch is one bulk mutation, applied under a single acquisition of the
// writer lock so readers see the graph before it or after it.
type Batch struct {
	// Nodes become vertices that point at the view's events (replacing
	// same-ID ones); nobody may write them while the graph is in use.
	Nodes capture.View
	// Reset names vertices that lose their in-edges before Edges are
	// added: afterwards their parents are exactly what Edges gives them.
	Reset []uint64
	// Edges are added list by list, in order, as AddEdge would.
	Edges [][]Edge
}

// Apply performs b.
func (g *Graph) Apply(b Batch) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.applyLocked(b)
}

func (g *Graph) applyLocked(b Batch) {
	g.carveLocked(g.addNodesLocked(b.Nodes), b.Edges)
	for _, id := range b.Reset {
		i, ok := g.pos(id)
		if !ok || len(g.verts[i].in) == 0 {
			continue
		}
		v := g.own(i)
		for _, from := range v.in {
			f := g.slot(from)
			f.out = dropID(f.out, id)
		}
		g.edges -= len(v.in)
		v.in = nil
	}
	for _, es := range b.Edges {
		for i := range es {
			g.addEdgeLocked(es[i].From, es[i].To)
		}
	}
}

func dropID(ids []uint64, id uint64) []uint64 {
	return slices.DeleteFunc(ids, func(c uint64) bool { return c == id })
}

// Without returns g minus the hidden vertices (IDs ascending) and every edge
// touching one; g itself reads as before. It costs a pointer per vertex plus
// a copy of each vertex whose adjacency the removal changes. Every other
// vertex is shared between the two graphs, which is safe because both take
// a new generation here: whichever next writes a shared vertex copies it
// first (own).
func (g *Graph) Without(hidden []uint64) *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gen = generations.Add(1)
	d := &Graph{gen: generations.Add(1), verts: make([]*vertex, 0, len(g.verts)),
		nodes: g.nodes, edges: g.edges, prunedBelow: g.prunedBelow,
		inherited: maps.Clone(g.inherited)}
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
			if !gone(from) {
				f := d.slot(from)
				f.out = dropID(f.out, id)
			}
		}
		for _, to := range h.out {
			if gone(to) {
				continue // counted among to's in-edges
			}
			t := d.slot(to)
			t.in = dropID(t.in, id)
			d.edges--
		}
	}
	return d
}

// Node returns the vertex with the given ID.
func (g *Graph) Node(id uint64) (capture.IO, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if v := g.find(id); v != nil && v.known {
		return v.io.Stripped(), true
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
			out = append(out, v.io.Stripped())
		}
	}
	return out
}

// Refs is Nodes without the copies: a pointer to every vertex's event,
// sorted by ID. It is the event as captured, so a caller must not read its
// oracle fields (Causes, TrueTime), and nobody may write it.
func (g *Graph) Refs() []*capture.IO {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*capture.IO, 0, g.nodes)
	for _, v := range g.verts {
		if v.known {
			out = append(out, v.io)
		}
	}
	return out
}

// refsAt appends the known vertices at the given positions to out.
func (g *Graph) refsAt(out []*capture.IO, at []int32) []*capture.IO {
	for _, p := range at {
		if v := g.verts[p]; v.known {
			out = append(out, v.io)
		}
	}
	return out
}

// deref copies the events out of the graph, less the oracle fields.
func deref(refs []*capture.IO) []capture.IO {
	if len(refs) == 0 {
		return nil
	}
	out := make([]capture.IO, len(refs))
	for i, r := range refs {
		out[i] = r.Stripped()
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

// Parents returns the direct happens-before predecessors of id, sorted.
func (g *Graph) Parents(id uint64) []uint64 { return g.adjacent(id, true) }

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
			return []capture.IO{v.io.Stripped()}
		}
	}
	return roots
}

// rootsLocked collects id's root causes, sorted by ID: its own inherited
// set, each ancestor's (the walk continues through any parents such an
// ancestor still has) and every ancestor without parents, stripped. An
// inherited set is made of stripped events too (PruneBefore), so a root set
// carries no oracle field. It also counts id's known ancestors and returns
// the positions it marked in seen.
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
				roots = append(roots, v.io.Stripped())
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
			roots = []capture.IO{v.io.Stripped()}
		}
		folds = append(folds, fold{v.io.ID, roots})
	}
	for _, f := range folds {
		g.inherited[f.id] = mergeRootSets(g.inherited[f.id], f.roots)
	}
	// Drop pruned vertices, their edges, and their inherited sets. A reslice
	// would keep them reachable through the backing array: copy the survivors.
	// A pruned vertex this graph owns is zeroed (see vertex); one it may
	// share is left for the other graph, and the kept vertices move off its
	// slab (rehomeLocked).
	for _, v := range g.verts[:k] {
		if v.known {
			g.nodes--
		}
		g.edges -= len(v.in)
		delete(g.inherited, v.io.ID)
		if v.gen == g.gen {
			*v = vertex{}
		}
	}
	g.verts = append(make([]*vertex, 0, len(g.verts)-k), g.verts[k:]...)
	g.rehomeLocked()
	for _, v := range g.verts { // all this graph's own now
		if !slices.ContainsFunc(v.in, below) && !slices.ContainsFunc(v.out, below) {
			continue
		}
		n := len(v.in)
		v.in, v.out = slices.DeleteFunc(v.in, below), slices.DeleteFunc(v.out, below)
		g.edges -= n - len(v.in)
	}
	g.prunedBelow = id
}

// rehomeLocked gives the graph its own copy of every vertex it may share
// with another (Without), all in one slab with their lists in one arena. A
// pruned vertex another graph may still read cannot be zeroed, so until
// then every kept vertex of its slab would pin it, and through it its event.
func (g *Graph) rehomeLocked() {
	n, total := 0, 0
	for _, v := range g.verts {
		if v.gen != g.gen {
			n++
			total += len(v.in) + len(v.out)
		}
	}
	if n == 0 {
		return
	}
	slab, a := make([]vertex, 0, n), make(arena, total)
	for i, v := range g.verts {
		if v.gen != g.gen {
			slab = append(slab, vertex{io: v.io, known: v.known, gen: g.gen,
				in: append(a.carve(len(v.in)), v.in...), out: append(a.carve(len(v.out)), v.out...)})
			g.verts[i] = &slab[len(slab)-1]
		}
	}
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
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
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
