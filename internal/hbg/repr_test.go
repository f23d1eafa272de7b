package hbg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"

	"hbverify/internal/capture"
)

// The representation fixture: sparse IDs on two routers, an edge that runs
// against ID order (8→5: a skewed clock), and an edge from a vertex that
// never arrives (99).
var (
	fixtureIDs   = []uint64{2, 3, 5, 8, 9, 12, 13}
	fixtureEdges = []Edge{
		{2, 3}, {3, 5}, {2, 5}, {8, 5}, {5, 9},
		{9, 12}, {12, 13}, {3, 13}, {99, 13},
	}
)

func fixtureIO(id uint64) capture.IO {
	return testIO(id, []string{"r1", "r2"}[id%2])
}

// fixtureBuilders build the fixture through the two ways a graph is filled:
// vertex by vertex and edge by edge, out of ID order, and as bulk batches.
var fixtureBuilders = map[string]func() *Graph{
	"AddNode/AddEdge": func() *Graph {
		g := New()
		for _, i := range []int{3, 0, 6, 2, 5, 1, 4} {
			g.AddNode(fixtureIO(fixtureIDs[i]))
		}
		for i := len(fixtureEdges) - 1; i >= 0; i-- {
			e := fixtureEdges[i]
			g.AddEdge(e.From, e.To)
		}
		return g
	},
	"Apply": func() *Graph {
		var first, second []capture.IO
		for i, id := range fixtureIDs {
			if i%2 == 0 {
				first = append(first, fixtureIO(id))
			} else {
				second = append(second, fixtureIO(id))
			}
		}
		g := New()
		g.Apply(Batch{Nodes: capture.ViewOf(first), Edges: [][]Edge{fixtureEdges[:4]}})
		g.Apply(Batch{Nodes: capture.ViewOf(second), Edges: [][]Edge{fixtureEdges[4:6], fixtureEdges[6:]}})
		return g
	},
}

func ids(ios []capture.IO) []uint64 {
	out := []uint64{}
	for _, io := range ios {
		out = append(out, io.ID)
	}
	return out
}

func encode(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	cp := &Checkpoint{Graph: g, LastID: 13, FirstRetainedID: g.PrunedBelow(), Retained: []capture.IO{fixtureIO(13)}}
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRepresentationOrderAndContent(t *testing.T) {
	for name, build := range fixtureBuilders {
		t.Run(name, func(t *testing.T) {
			g := build()
			eq := func(what string, got, want interface{}) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s = %v, want %v", what, got, want)
				}
			}
			eq("NodeCount", g.NodeCount(), 7)
			eq("EdgeCount", g.EdgeCount(), 9)
			eq("Nodes", ids(g.Nodes()), fixtureIDs)
			for i, io := range g.Nodes() {
				eq("Nodes content", io, fixtureIO(fixtureIDs[i]))
			}
			for i, ref := range g.Refs() {
				eq("Refs content", *ref, fixtureIO(fixtureIDs[i]))
			}
			eq("Edges", g.Edges(), []Edge{{2, 3}, {2, 5}, {3, 5}, {3, 13}, {5, 9}, {8, 5}, {9, 12}, {12, 13}, {99, 13}})
			eq("Parents(5)", g.Parents(5), []uint64{2, 3, 8})
			eq("Children(2)", g.Children(2), []uint64{3, 5})
			eq("Children(99)", g.Children(99), []uint64{13})
			eq("Provenance(13)", ids(g.Provenance(13)), []uint64{2, 3, 5, 8, 9, 12})
			eq("Provenance(2)", g.Provenance(2), []capture.IO(nil))
			eq("Descendants(5)", ids(g.Descendants(5)), []uint64{9, 12, 13})
			eq("RootCauses(13)", ids(g.RootCauses(13)), []uint64{2, 8})
			eq("RootCauses(2)", ids(g.RootCauses(2)), []uint64{2})
			eq("RootCauses(99)", g.RootCauses(99), []capture.IO(nil))
			// Two FIB-like roots sharing most of their provenance: the second
			// contributes only what the first did not reach.
			var anc []uint64
			for _, ref := range g.Ancestry([]uint64{9, 13, 7}) {
				anc = append(anc, ref.ID)
			}
			eq("Ancestry(9,13)", anc, []uint64{2, 3, 5, 8, 9, 12})
			for _, e := range fixtureEdges {
				eq("HasEdge", hasEdge(g, e.From, e.To), true)
			}
			eq("HasEdge(absent)", hasEdge(g, 5, 8), false)
			if _, ok := g.Node(99); ok {
				t.Error("Node(99) reports a vertex that was never added")
			}
			order, err := g.TopoOrder()
			eq("TopoOrder", order, []uint64(nil))
			if err == nil {
				t.Error("TopoOrder accepted an edge from a vertex that never arrived")
			}

			before := g.RootCauses(13)
			g.PruneBefore(8)
			eq("pruned Nodes", ids(g.Nodes()), []uint64{8, 9, 12, 13})
			eq("pruned Edges", g.Edges(), []Edge{{9, 12}, {12, 13}, {99, 13}})
			eq("pruned EdgeCount", g.EdgeCount(), 3)
			eq("pruned Children(8)", g.Children(8), []uint64(nil))
			eq("InheritedRoots(9)", ids(g.InheritedRoots(9)), []uint64{2, 8})
			eq("InheritedRoots(13)", ids(g.InheritedRoots(13)), []uint64{2, 8})
			eq("InheritedRoots(12)", g.InheritedRoots(12), []capture.IO(nil))
			eq("RootCauses(13) after prune", g.RootCauses(13), before)
			eq("HasEdge(9,12) after prune", hasEdge(g, 9, 12), true)
			eq("HasEdge(3,5) after prune", hasEdge(g, 3, 5), false)
		})
	}
}

func TestBuildersAgreeByteForByte(t *testing.T) {
	a, b := fixtureBuilders["AddNode/AddEdge"](), fixtureBuilders["Apply"]()
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Fatal("the same graph built two ways encodes differently")
	}
	a.PruneBefore(8)
	b.PruneBefore(8)
	enc := encode(t, a)
	if !bytes.Equal(enc, encode(t, b)) {
		t.Fatal("the same pruned graph built two ways encodes differently")
	}
	cp, err := DecodeCheckpoint(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := cp.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, again.Bytes()) {
		t.Fatal("encode → decode → encode changed the bytes")
	}
	// The HBGCKPT3 bytes of this state. They are the HBGCKPT2 bytes (sha256
	// f4b9c12b…, themselves the HBGCKPT1 bytes of the map-backed graph this
	// representation replaced with one empty NextHops count added to each of
	// the nine I/Os) with the magic's last byte bumped and the eight
	// confidence bytes dropped from each of the three edges: 656 bytes less 24.
	const golden = "3f0f8d227db696d419ad7105f69c1a1acd7ac09ddf4e45c992bbd143d5ebf10b"
	if sum := sha256.Sum256(enc); hex.EncodeToString(sum[:]) != golden {
		t.Fatalf("checkpoint bytes changed: sha256 %x", sum)
	}
}

// TestDuplicateEdgeIsIdempotent: an edge the graph already has, added alone
// or in a batch, changes neither the edge count nor a byte of the checkpoint.
func TestDuplicateEdgeIsIdempotent(t *testing.T) {
	dups := []Edge{{3, 5}, {9, 12}, {2, 3}, {99, 13}}
	adds := map[string]func(*Graph){
		"AddEdge": func(g *Graph) {
			for _, e := range dups {
				g.AddEdge(e.From, e.To)
			}
		},
		"Apply": func(g *Graph) { g.Apply(Batch{Edges: [][]Edge{dups, dups}}) },
	}
	for via, add := range adds {
		t.Run(via, func(t *testing.T) {
			for name, build := range fixtureBuilders {
				g := build()
				want := encode(t, g)
				add(g)
				if g.NodeCount() != len(fixtureIDs) || g.EdgeCount() != len(fixtureEdges) {
					t.Errorf("%s: %d nodes, %d edges after duplicates", name, g.NodeCount(), g.EdgeCount())
				}
				if !bytes.Equal(encode(t, g), want) {
					t.Errorf("%s: adding edges the graph has changed its checkpoint", name)
				}
			}
		})
	}
}

func TestApplyResetReplacesInEdges(t *testing.T) {
	for name, build := range fixtureBuilders {
		t.Run(name, func(t *testing.T) {
			g := build()
			g.Apply(Batch{
				Nodes: capture.ViewOf([]capture.IO{fixtureIO(14)}),
				Reset: []uint64{5, 13, 77},
				Edges: [][]Edge{{{14, 5}, {2, 5}}, {{13, 14}}},
			})
			if got, want := g.Parents(5), []uint64{2, 14}; !reflect.DeepEqual(got, want) {
				t.Errorf("Parents(5) = %v, want %v", got, want)
			}
			if got := g.Parents(13); len(got) != 0 {
				t.Errorf("Parents(13) = %v, want none", got)
			}
			if got := g.Children(3); len(got) != 0 {
				t.Errorf("Children(3) = %v, want none", got)
			}
			if hasEdge(g, 3, 5) || hasEdge(g, 8, 5) || !hasEdge(g, 14, 5) {
				t.Errorf("edges after reset: 3→5 %v, 8→5 %v, 14→5 %v",
					hasEdge(g, 3, 5), hasEdge(g, 8, 5), hasEdge(g, 14, 5))
			}
			if got, want := g.EdgeCount(), 9-3-3+3; got != want {
				t.Errorf("EdgeCount = %d, want %d", got, want)
			}
			if got := len(g.Edges()); got != g.EdgeCount() {
				t.Errorf("Edges lists %d edges, EdgeCount says %d", got, g.EdgeCount())
			}
		})
	}
}

// TestGraphOwnsItsVertices: a graph copies what it is given, and a pointer
// it hands out outlives a replacement of that vertex unchanged.
func TestGraphOwnsItsVertices(t *testing.T) {
	ios := []capture.IO{fixtureIO(1), fixtureIO(2)}
	g := New()
	g.Apply(Batch{Nodes: capture.ViewOf(ios)})
	ios[0].Router, ios[1].Detail = "mutated", "mutated"
	if got := g.Nodes(); !reflect.DeepEqual(got, []capture.IO{fixtureIO(1), fixtureIO(2)}) {
		t.Fatalf("mutating the caller's slice changed the graph: %+v", got)
	}
	ref := g.Refs()[0]
	replacement := fixtureIO(1)
	replacement.Detail = "replaced"
	g.AddNode(replacement)
	if ref.Detail != fixtureIO(1).Detail {
		t.Fatalf("a handed-out vertex was overwritten: %q", ref.Detail)
	}
	if io, _ := g.Node(1); io.Detail != "replaced" || g.NodeCount() != 2 {
		t.Fatalf("AddNode did not replace: %+v, %d nodes", io, g.NodeCount())
	}
}

// TestConcurrentReadersAndBatches (run with -race): readers keep using the
// pointers Refs and Ancestry hand out while a writer appends batches,
// replaces vertices, resets in-edges and prunes.
func TestConcurrentReadersAndBatches(t *testing.T) {
	g := New()
	const batches, per = 40, 25
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				refs := g.Refs()
				for i, ref := range refs {
					if i > 0 && refs[i-1].ID >= ref.ID {
						t.Errorf("Refs out of order: %d before %d", refs[i-1].ID, ref.ID)
						return
					}
				}
				if n := len(refs); n > 0 {
					last := refs[n-1].ID
					for _, anc := range g.Ancestry([]uint64{last}) {
						if anc.ID >= last || anc.Router == "" {
							t.Errorf("ancestor %d (%q) of %d", anc.ID, anc.Router, last)
							return
						}
					}
					g.RootCauses(last)
				}
				g.Edges()
			}
		}()
	}
	for b := 0; b < batches; b++ {
		var nodes []capture.IO
		var edges []Edge
		for i := 1; i <= per; i++ {
			id := uint64(b*per + i)
			nodes = append(nodes, fixtureIO(id))
			if id > 1 {
				edges = append(edges, Edge{id - 1, id})
			}
		}
		g.Apply(Batch{Nodes: capture.ViewOf(nodes), Edges: [][]Edge{edges}})
		mid := uint64(b*per + per/2)
		g.AddNode(fixtureIO(mid))
		g.Apply(Batch{Reset: []uint64{mid + 1}, Edges: [][]Edge{{{mid, mid + 1}}}})
		if b%8 == 7 {
			g.PruneBefore(uint64((b - 3) * per))
		}
	}
	close(done)
	wg.Wait()
	if want := batches*per - (batches-1-3)*per + 1; g.NodeCount() != want {
		t.Fatalf("NodeCount = %d, want %d", g.NodeCount(), want)
	}
}
