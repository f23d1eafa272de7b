package hbg

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"hbverify/internal/capture"
)

// observed is everything a graph's accessors report, for comparing a graph
// with what it should be or with itself before somebody else's write.
type observed struct {
	Nodes       []capture.IO
	Edges       []EdgeConf
	Parents     map[uint64][]uint64
	Children    map[uint64][]uint64
	Roots       map[uint64][]capture.IO
	Inherited   map[uint64][]capture.IO
	PrunedBelow uint64
	NodeCount   int
	EdgeCount   int
}

func observe(g *Graph) observed {
	o := observed{
		Nodes: g.Nodes(), PrunedBelow: g.PrunedBelow(), NodeCount: g.NodeCount(), EdgeCount: g.EdgeCount(),
		Parents: map[uint64][]uint64{}, Children: map[uint64][]uint64{},
		Roots: map[uint64][]capture.IO{}, Inherited: map[uint64][]capture.IO{},
	}
	touched := map[uint64]bool{}
	for _, e := range g.Edges() {
		o.Edges = append(o.Edges, EdgeConf{e.From, e.To, g.Confidence(e.From, e.To)})
		touched[e.From], touched[e.To] = true, true
	}
	for _, io := range o.Nodes {
		touched[io.ID] = true
		o.Roots[io.ID] = g.RootCauses(io.ID)
		if inh := g.InheritedRoots(io.ID); len(inh) > 0 {
			o.Inherited[io.ID] = inh
		}
	}
	for id := range touched {
		if ps := g.Parents(id); len(ps) > 0 {
			o.Parents[id] = ps
		}
		if cs := g.Children(id); len(cs) > 0 {
			o.Children[id] = cs
		}
	}
	return o
}

// expectWithout works out, from what g reports alone, what g without the
// hidden vertices must report (root causes aside: they are re-traced).
func expectWithout(g *Graph, hidden []uint64) observed {
	gone := func(id uint64) bool { return slices.Contains(hidden, id) }
	before := observe(g)
	o := observed{
		Nodes: []capture.IO{}, PrunedBelow: before.PrunedBelow,
		Parents: map[uint64][]uint64{}, Children: map[uint64][]uint64{},
		Inherited: map[uint64][]capture.IO{},
	}
	for _, io := range before.Nodes {
		if !gone(io.ID) {
			o.Nodes = append(o.Nodes, io)
		}
	}
	for _, e := range before.Edges {
		if !gone(e.From) && !gone(e.To) {
			o.Edges = append(o.Edges, e)
			o.Parents[e.To] = append(o.Parents[e.To], e.From)
			o.Children[e.From] = append(o.Children[e.From], e.To)
		}
	}
	for _, adj := range []map[uint64][]uint64{o.Parents, o.Children} {
		for id := range adj {
			slices.Sort(adj[id])
		}
	}
	for id, inh := range before.Inherited {
		if !gone(id) {
			o.Inherited[id] = inh
		}
	}
	o.NodeCount, o.EdgeCount = len(o.Nodes), len(o.Edges)
	return o
}

func prunedFixture() *Graph {
	g := fixtureBuilders["Apply"]()
	g.PruneBefore(5)
	return g
}

// TestWithout: the derived graph reports exactly the parent minus the hidden
// vertices and their edges, and the parent reports what it did before.
func TestWithout(t *testing.T) {
	fixture := fixtureBuilders["AddNode/AddEdgeConf"]
	for _, tc := range []struct {
		name   string
		build  func() *Graph
		hidden []uint64
	}{
		{"first vertex", fixture, []uint64{2}},
		{"last vertex", fixture, []uint64{13}},
		{"interior vertex", fixture, []uint64{5}},
		{"parent and child of one vertex", fixture, []uint64{3, 9}},
		{"both ends of an edge", fixture, []uint64{12, 13}},
		{"non-unit confidences on every side", fixture, []uint64{5, 12}},
		{"a placeholder", fixture, []uint64{99}},
		{"the child of a placeholder", fixture, []uint64{13}},
		{"an ID the graph never had", fixture, []uint64{4, 5, 200}},
		{"everything", fixture, append(slices.Clone(fixtureIDs), 99)},
		{"nothing", fixture, nil},
		{"pruned graph, vertex with inherited roots", prunedFixture, []uint64{5}},
		{"pruned graph, vertex below one with inherited roots", prunedFixture, []uint64{9, 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			before, want := observe(g), expectWithout(g, tc.hidden)
			d := g.Without(tc.hidden, Batch{})
			got := observe(d)
			got.Roots = nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("derived graph:\n got %+v\nwant %+v", got, want)
			}
			if after := observe(g); !reflect.DeepEqual(after, before) {
				t.Errorf("parent changed:\n before %+v\n after  %+v", before, after)
			}
		})
	}
}

// TestWithoutAppliesBatch: the batch lands on the derived graph only, after
// the removal, with Apply's replace semantics.
func TestWithoutAppliesBatch(t *testing.T) {
	g := fixtureBuilders["Apply"]()
	before := observe(g)
	d := g.Without([]uint64{3}, Batch{Reset: []uint64{5, 13}, Edges: [][]EdgeConf{{{2, 5, 1}, {9, 5, 0.4}}}})
	if got, want := d.Parents(5), []uint64{2, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("Parents(5) = %v, want %v", got, want)
	}
	if d.Confidence(8, 5) != 0 || d.Confidence(9, 5) != 0.4 || len(d.Children(8)) != 0 {
		t.Errorf("8→5 %v, 9→5 %v, Children(8) %v after the reset", d.Confidence(8, 5), d.Confidence(9, 5), d.Children(8))
	}
	if got := d.Parents(13); len(got) != 0 {
		t.Errorf("Parents(13) = %v, want none", got)
	}
	if got, want := d.EdgeCount(), len(d.Edges()); got != want || got != 9-3-1-2+1 {
		t.Errorf("EdgeCount = %d, Edges lists %d, want %d", got, want, 9-3-1-2+1)
	}
	if after := observe(g); !reflect.DeepEqual(after, before) {
		t.Errorf("parent changed:\n before %+v\n after  %+v", before, after)
	}
}

// writes is every kind of mutation a graph has.
func writes(g *Graph) {
	g.Apply(Batch{
		Nodes: capture.ViewOf([]capture.IO{fixtureIO(14), fixtureIO(9)}),
		Reset: []uint64{5, 13},
		Edges: [][]EdgeConf{{{14, 5, 0.6}, {2, 13, 1}, {9, 14, 1}}},
	})
	g.AddEdgeConf(2, 3, 1)
	g.AddEdgeConf(2, 12, 0.3)
	other := New()
	other.Apply(Batch{Nodes: capture.ViewOf([]capture.IO{fixtureIO(15)}), Edges: [][]EdgeConf{{{8, 15, 1}}}})
	g.Merge(other)
	g.PruneBefore(8)
}

// TestWithoutIsolation: after Without, writes to either graph leave the
// other reporting what it did before, vertex for vertex.
func TestWithoutIsolation(t *testing.T) {
	for name, build := range fixtureBuilders {
		t.Run(name, func(t *testing.T) {
			g := build()
			d := g.Without([]uint64{9}, Batch{})
			derived := observe(d)
			writes(g)
			if after := observe(d); !reflect.DeepEqual(after, derived) {
				t.Fatalf("writing the parent changed the derived graph:\n before %+v\n after  %+v", derived, after)
			}
			parent := observe(g)
			writes(d)
			if after := observe(g); !reflect.DeepEqual(after, parent) {
				t.Fatalf("writing the derived graph changed the parent:\n before %+v\n after  %+v", parent, after)
			}
			// A second derivation shares with both; all three stay apart.
			d2 := g.Without([]uint64{12}, Batch{})
			second := observe(d2)
			writes(g)
			writes(d)
			if after := observe(d2); !reflect.DeepEqual(after, second) {
				t.Fatalf("writes to its relatives changed a second derived graph")
			}
		})
	}
}

// TestWithoutConcurrentWriterAndReaders (run with -race): a writer keeps
// mutating the parent while readers walk graphs derived from it. A vertex
// the two share and the writer changed in place would be a data race.
func TestWithoutConcurrentWriterAndReaders(t *testing.T) {
	g := New()
	const n = 400
	var nodes []capture.IO
	var edges []EdgeConf
	for id := uint64(1); id <= n; id++ {
		nodes = append(nodes, fixtureIO(id))
		if id > 1 {
			edges = append(edges, EdgeConf{id - 1, id, 1})
		}
		if id > 7 {
			edges = append(edges, EdgeConf{id - 7, id, 0.5})
		}
	}
	g.Apply(Batch{Nodes: capture.ViewOf(nodes), Edges: [][]EdgeConf{edges}})

	derived := make(chan *Graph)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range derived { // drained to the end even after an error: the writer blocks on it
				want := d.NodeCount()
				if refs := d.Refs(); len(refs) != want {
					t.Errorf("derived graph lists %d vertices, counts %d", len(refs), want)
					continue
				}
				if got := len(d.Edges()); got != d.EdgeCount() {
					t.Errorf("derived graph lists %d edges, counts %d", got, d.EdgeCount())
					continue
				}
				last := d.Refs()[want-1].ID
				d.Ancestry([]uint64{last})
				d.RootCauses(last)
				d.Parents(last)
			}
		}()
	}
	for round := uint64(0); round < 30; round++ {
		d := g.Without([]uint64{50 + round, 200 + round}, Batch{Reset: []uint64{300}, Edges: [][]EdgeConf{{{299, 300, 1}}}})
		for r := 0; r < 3; r++ {
			derived <- d
		}
		id := n + 1 + round
		g.Apply(Batch{
			Nodes: capture.ViewOf([]capture.IO{fixtureIO(id), fixtureIO(60 + round)}),
			Reset: []uint64{100 + round, 201 + round},
			Edges: [][]EdgeConf{{{id - 1, id, 1}, {51 + round, id, 0.7}, {99, 100 + round, 1}}},
		})
		if round%10 == 9 {
			g.PruneBefore(round)
		}
	}
	close(derived)
	wg.Wait()
}
