package hbr_test

import (
	"math/rand"
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
	log := pn.Log.All()
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

// requireNoOracle fails if any vertex of g carries an oracle field.
func requireNoOracle(t *testing.T, g *hbg.Graph) {
	t.Helper()
	for _, io := range g.Nodes() {
		if io.Causes != nil || io.TrueTime != 0 {
			t.Fatalf("vertex %d carries oracle fields: causes %v, true time %v", io.ID, io.Causes, io.TrueTime)
		}
	}
}

// TestInferenceIgnoresOracleFields: inference may read only what a router
// logs. Every strategy — over a slice, and through hbr.Incremental's full,
// extend and derive-over-view cases, which read a log's entries in place —
// must give a log with poisoned Causes and TrueTime exactly the graph it
// gives the same log stripped, and no vertex of any graph may carry either
// field. A rule that consulted one would see noise and change an edge.
func TestInferenceIgnoresOracleFields(t *testing.T) {
	log := poisonedLog(t, 3)
	stripped := capture.StripOracle(log)
	ref := capture.StripOracle(poisonedLog(t, 5))
	half := len(log) / 2
	for _, s := range hbr.Strategies(ref, 0) {
		t.Run(s.Name(), func(t *testing.T) {
			want := s.Infer(stripped)
			got := s.Infer(log)
			requireNoOracle(t, got)
			sameGraph(t, got, want)

			reg := metrics.NewRegistry()
			inc := hbr.NewIncremental(s, reg)
			got = inc.InferView(capture.ViewOf(log[:half]))
			requireNoOracle(t, got)
			sameGraph(t, got, s.Infer(stripped[:half]))
			got = inc.InferView(capture.ViewOf(log))
			requireNoOracle(t, got)
			sameGraph(t, got, want)
			if _, ok := s.(hbr.Lookbacker); ok && reg.Timer("infer.incremental").Count() != 1 {
				t.Fatalf("%d extensions, want the second inference to extend the first", reg.Timer("infer.incremental").Count())
			}
			if _, ok := s.(hbr.Rules); !ok {
				return
			}
			for i, r := range []string{"r1", "r2", "r3", "e1"} {
				cut := snapshot.Cut{r: log[half+i*len(log)/10].Time}
				hidden := snapshot.Hidden(capture.ViewOf(log), cut)
				got := inc.Cached(capture.ViewOf(log), hidden)
				if len(hidden) == 0 || got == nil {
					t.Fatalf("cut %v hides %d events; the cache answered %v", cut, len(hidden), got != nil)
				}
				requireNoOracle(t, got)
				sameGraph(t, got, s.Infer(snapshot.Collect(stripped, cut)))
			}
			if n := reg.Timer("infer.derived").Count(); n != 4 {
				t.Fatalf("%d of 4 cuts were derived over the view", n)
			}
		})
	}
}
