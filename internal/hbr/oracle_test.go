package hbr_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/snapshot"
)

// poisonedLog is the paper network's log after a hundred local-pref edits —
// enough events that inference shards across workers — read with its oracle
// fields and then given random ones: most events get a TrueTime anywhere in
// ±1 h and one to three Causes drawn from the whole log.
func poisonedLog(t *testing.T, seed int64) []capture.IO {
	t.Helper()
	pn, err := network.BuildPaper(seed, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		lp := uint32(10 + 290*(i%2))
		if _, err := pn.UpdateConfig("r2", "uplink local-pref", func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
		}); err != nil {
			t.Fatal(err)
		}
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
	}
	log := pn.Log.Snapshot()
	rng := rand.New(rand.NewSource(seed))
	for i := range log {
		if rng.Intn(8) == 0 {
			continue // keep the simulator's own
		}
		log[i].TrueTime = log[i].Time.Add(time.Duration(rng.Int63n(int64(2*time.Hour))) - time.Hour)
		log[i].Causes = nil
		for k := 1 + rng.Intn(3); k > 0; k-- {
			log[i].Causes = append(log[i].Causes, log[rng.Intn(len(log))].ID)
		}
	}
	return log
}

// requireNoOracle fails if any event g hands out carries an oracle field:
// its vertices, a sample of them one by one with their provenance and root
// causes, the same after a prune of a graph sharing g's vertices folds root
// sets into inherited ones, a vertex the prune makes its own root, the
// receives snapshot.Check finds missing, and the events a checkpoint of that
// pruned graph holds. A graph's vertices
// point at the events as captured, so each of these is a copy the graph
// must strip.
func requireNoOracle(t *testing.T, g *hbg.Graph) {
	t.Helper()
	check := func(what string, ios []capture.IO) {
		t.Helper()
		for _, io := range ios {
			if io.Causes != nil || io.TrueTime != 0 {
				t.Fatalf("%s: event %d carries oracle fields: causes %v, true time %v", what, io.ID, io.Causes, io.TrueTime)
			}
		}
	}
	nodes := g.Nodes()
	check("Nodes", nodes)
	check("snapshot.Check Missing", snapshot.Check(g, nil).Missing)
	sample := func(what string, g *hbg.Graph, from int) {
		t.Helper()
		for i := from; i < len(nodes); i += max(1, (len(nodes)-from)/16) {
			id := nodes[i].ID
			io, _ := g.Node(id)
			check(fmt.Sprintf("%s Node(%d)", what, id), []capture.IO{io})
			check(fmt.Sprintf("%s Provenance(%d)", what, id), g.Provenance(id))
			check(fmt.Sprintf("%s RootCauses(%d)", what, id), g.RootCauses(id))
		}
	}
	sample("graph", g, 0)

	// Inference makes no placeholders, so no graph above reaches the
	// prune's own-root fold: a vertex whose pruned parents are all
	// placeholders has no ancestor to take roots from and becomes its own
	// root, a copy of its event. Build one over g's first event that
	// carries oracle fields.
	refs := g.Refs()
	if i := slices.IndexFunc(refs, func(io *capture.IO) bool {
		return io.ID > 1 && (io.Causes != nil || io.TrueTime != 0)
	}); i >= 0 {
		io := refs[i]
		lone := hbg.New()
		lone.AddNode(*io)
		lone.AddEdge(io.ID-1, io.ID) // the parent is a placeholder
		lone.PruneBefore(io.ID)
		roots := lone.RootCauses(io.ID)
		if len(roots) != 1 || roots[0].ID != io.ID {
			t.Fatalf("RootCauses(%d) after its placeholder parent's prune = %v, want the event itself", io.ID, roots)
		}
		check(fmt.Sprintf("own root RootCauses(%d)", io.ID), roots)
	}
	if len(nodes) < 2 {
		return
	}

	pruned := g.Without(nil)
	pruned.PruneBefore(nodes[len(nodes)/2].ID)
	sample("pruned", pruned, len(nodes)/2)
	var buf bytes.Buffer
	if err := (&hbg.Checkpoint{Graph: pruned}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := hbg.DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded vertices are the file's events, read as they were written.
	var decoded []capture.IO
	for _, ref := range c.Graph.Refs() {
		decoded = append(decoded, *ref)
	}
	check("checkpoint", decoded)
	sample("decoded", c.Graph, len(nodes)/2)
}

// TestInferenceIgnoresOracleFields: inference may read only what a router
// logs. Every §4.2 baseline over a slice, and Rules also through
// hbr.Incremental's full, extend and derive cases, which read the events
// they are given in place, must give a log with poisoned Causes and TrueTime
// exactly the graph it gives the same log stripped, and no vertex of any
// graph may carry either field. A rule that consulted one would see noise
// and change an edge.
func TestInferenceIgnoresOracleFields(t *testing.T) {
	log := poisonedLog(t, 3)
	stripped := capture.StripOracle(log)
	ref := capture.StripOracle(poisonedLog(t, 5))
	half := len(log) / 2
	for _, s := range hbr.Baselines(ref, 0) {
		t.Run(s.Name, func(t *testing.T) {
			want := s.Infer(stripped)
			got := s.Infer(log)
			requireNoOracle(t, got)
			sameGraph(t, got, want)
			if s.Name != "rules" {
				return
			}

			reg := metrics.NewRegistry()
			inc := hbr.NewIncremental(hbr.Rules{}, reg)
			got = inc.InferView(capture.ViewOf(log[:half]))
			requireNoOracle(t, got)
			sameGraph(t, got, s.Infer(stripped[:half]))
			got = inc.InferView(capture.ViewOf(log))
			requireNoOracle(t, got)
			sameGraph(t, got, want)
			if n := reg.Histogram("infer.incremental").Count(); n != 1 {
				t.Fatalf("%d extensions, want the second inference to extend the first", n)
			}
			for i, r := range []string{"r1", "r2", "r3", "e1"} {
				cut := snapshot.Cut{r: log[half+i*len(log)/10].Time}
				visible := snapshot.Collect(log, cut)
				if len(visible) == len(log) {
					t.Fatalf("cut %v hides nothing", cut)
				}
				got := inc.Infer(visible)
				requireNoOracle(t, got)
				sameGraph(t, got, s.Infer(snapshot.Collect(stripped, cut)))
			}
			if n := reg.Histogram("infer.derived").Count(); n != 4 {
				t.Fatalf("%d of 4 cuts were derived", n)
			}
		})
	}
}
