package hbg

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/network"
)

// Children returns the direct successors of id, sorted: the out-lists the
// tests check against the in-lists.
func (g *Graph) Children(id uint64) []uint64 { return g.adjacent(id, false) }

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }

// hasEdge reports whether from→to exists.
func hasEdge(g *Graph, from, to uint64) bool { return slices.Contains(g.Parents(to), from) }

// FromGroundTruth builds the oracle HBG from the simulator's causal tags.
func FromGroundTruth(ios []capture.IO) *Graph {
	g := New()
	g.addNodesLocked(capture.ViewOf(ios))
	for i := range ios {
		for _, c := range ios[i].Causes {
			if v := g.find(c); v != nil && v.known {
				g.addEdgeLocked(c, ios[i].ID)
			}
		}
	}
	return g
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

// InheritedRoots returns the snapshotted root-cause set vertex id acquired
// through pruning, nil if none.
func (g *Graph) InheritedRoots(id uint64) []capture.IO {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]capture.IO(nil), g.inherited[id]...)
}

// chain builds cfg(1) -> rib(2) -> fib(3), plus send(4) from rib.
func chain() *Graph {
	g := New()
	g.AddNode(capture.IO{ID: 1, Router: "r2", Type: capture.ConfigChange})
	g.AddNode(capture.IO{ID: 2, Router: "r2", Type: capture.RIBInstall, Prefix: pfx("10.0.0.0/8")})
	g.AddNode(capture.IO{ID: 3, Router: "r2", Type: capture.FIBInstall, Prefix: pfx("10.0.0.0/8")})
	g.AddNode(capture.IO{ID: 4, Router: "r2", Type: capture.SendAdvert, Prefix: pfx("10.0.0.0/8"), Peer: "r1"})
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(2, 4)
	return g
}

func TestProvenanceAndRootCause(t *testing.T) {
	g := chain()
	prov := g.Provenance(3)
	if len(prov) != 2 || prov[0].ID != 1 || prov[1].ID != 2 {
		t.Fatalf("provenance = %v", prov)
	}
	roots := g.RootCauses(3)
	if len(roots) != 1 || roots[0].Type != capture.ConfigChange {
		t.Fatalf("roots = %v", roots)
	}
	// A node without parents is its own root.
	roots = g.RootCauses(1)
	if len(roots) != 1 || roots[0].ID != 1 {
		t.Fatalf("self root = %v", roots)
	}
}

func TestDescendants(t *testing.T) {
	g := chain()
	desc := g.Descendants(1)
	if len(desc) != 3 {
		t.Fatalf("descendants = %v", desc)
	}
	if len(g.Descendants(4)) != 0 {
		t.Fatal("leaf has descendants")
	}
}

func TestEdgeBookkeeping(t *testing.T) {
	g := chain()
	if !hasEdge(g, 1, 2) || hasEdge(g, 2, 1) {
		t.Fatal("HasEdge wrong")
	}
	if g.EdgeCount() != 3 || g.NodeCount() != 4 {
		t.Fatalf("counts = %d %d", g.EdgeCount(), g.NodeCount())
	}
	// Duplicate edges collapse.
	g.AddEdge(1, 2)
	if g.EdgeCount() != 3 {
		t.Fatal("duplicate edge handling")
	}
	g.AddEdge(3, 4)
	g.AddEdge(3, 4)
	// Self edges and zero IDs ignored.
	g.AddEdge(2, 2)
	g.AddEdge(0, 2)
	if g.EdgeCount() != 4 {
		t.Fatalf("edge count = %d", g.EdgeCount())
	}
	if ps := g.Parents(2); len(ps) != 1 || ps[0] != 1 {
		t.Fatalf("parents = %v", ps)
	}
	if cs := g.Children(2); len(cs) != 2 {
		t.Fatalf("children = %v", cs)
	}
}

func TestTopoOrderAndCycles(t *testing.T) {
	g := chain()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[uint64]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("topo order violates edge %v", e)
		}
	}
	g.AddEdge(4, 1) // close a cycle
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestFromGroundTruthPaperScenario(t *testing.T) {
	// Build the Fig. 2 scenario and check the oracle HBG has the paper's
	// shape: traversing back from R1's FIB install reaches the config
	// change on R2 as the unique root cause (Fig. 4).
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	markStart := pn.Log.Len()
	ccIO, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	ios := pn.Log.Snapshot()[markStart:]
	g := FromGroundTruth(ios)

	// Find the fault vertex of Fig. 4: R1 installs P -> Ext in its FIB.
	var fault capture.IO
	for _, io := range ios {
		if io.Router == "r1" && io.Type == capture.FIBInstall && io.Prefix == pn.P {
			fault = io
		}
	}
	if fault.ID == 0 {
		t.Fatal("r1 never installed the violating FIB entry")
	}
	roots := g.RootCauses(fault.ID)
	if len(roots) != 1 {
		t.Fatalf("roots = %v", roots)
	}
	if roots[0].ID != ccIO.ID || roots[0].Type != capture.ConfigChange || roots[0].Router != "r2" {
		t.Fatalf("root cause = %v, want r2 config change %d", roots[0], ccIO.ID)
	}
	// The provenance includes the soft reconfig, R2's RIB update, the
	// iBGP advertisement to R1, and R1's recv — the Fig. 4 vertices.
	prov := g.Provenance(fault.ID)
	var haveSoft, haveR2RIB, haveSend, haveRecv bool
	for _, io := range prov {
		switch {
		case io.Router == "r2" && io.Type == capture.SoftReconfig:
			haveSoft = true
		case io.Router == "r2" && io.Type == capture.RIBInstall && io.Prefix == pn.P:
			haveR2RIB = true
		case io.Router == "r2" && io.Type == capture.SendAdvert && io.Peer == "r1":
			haveSend = true
		case io.Router == "r1" && io.Type == capture.RecvAdvert && io.Peer == "r2":
			haveRecv = true
		}
	}
	if !haveSoft || !haveR2RIB || !haveSend || !haveRecv {
		t.Fatalf("provenance missing Fig.4 vertices: soft=%v rib=%v send=%v recv=%v",
			haveSoft, haveR2RIB, haveSend, haveRecv)
	}
	// The oracle graph is acyclic.
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestDOTAndTextRendering(t *testing.T) {
	g := chain()
	g.AddEdge(1, 4)
	dot := g.DOT()
	for _, want := range []string{"digraph hbg", "cluster_0", "n1 -> n2", "n1 -> n4;"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	text := g.Text()
	if !strings.Contains(text, "#3") || !strings.Contains(text, "<- #2") {
		t.Fatalf("Text = %q", text)
	}
}

func TestMissingCausesTolerated(t *testing.T) {
	ios := []capture.IO{
		{ID: 5, Router: "a", Type: capture.RIBInstall, Causes: []uint64{999}}, // dangling
	}
	g := FromGroundTruth(ios)
	if g.EdgeCount() != 0 || g.NodeCount() != 1 {
		t.Fatalf("graph = %d/%d", g.NodeCount(), g.EdgeCount())
	}
}
