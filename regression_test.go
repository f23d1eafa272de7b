package hbverify

import (
	"reflect"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbr"
	"hbverify/internal/scenario"
	"hbverify/internal/verify"
)

// TestIncrementalInvalidatedByRollback pins the interaction the scenario
// harness's repair oracle depends on: when a repair rollback lands between
// incremental inference rounds, the cached graph must be invalidated —
// the rollback's ConfigChange plus the reconvergence it triggers are new
// log suffix, but the cache must not serve any state poisoned by the
// pre-rollback round — and the next inference must match a from-scratch
// Rules pass exactly.
func TestIncrementalInvalidatedByRollback(t *testing.T) {
	pn, p := startPaper(t)

	// Round 1: warm the incremental cache on the healthy network.
	p.Graph()
	invalidations := func() int64 {
		return p.Metrics.Counter("infer.cache.invalidations").Value()
	}
	if invalidations() != 0 {
		t.Fatalf("cache invalidated before any repair: %d", invalidations())
	}

	// Fault: the same localpref misconfiguration the paper repairs.
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}

	// Round 2: incremental inference sees the fault's suffix.
	p.Graph()

	// Repair rollback lands between incremental rounds.
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	d, err := p.DetectAndRepair(policies)
	if err != nil {
		t.Fatal(err)
	}
	if !d.RolledBack {
		t.Fatalf("no rollback: %s", d)
	}
	if invalidations() < 1 {
		t.Fatal("rollback did not invalidate the incremental inference cache")
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}

	// Round 3: post-rollback inference must equal a fresh full pass.
	got := p.Graph()
	want := hbr.Rules{}.Infer(capture.StripOracle(pn.Log.All()))
	if got.NodeCount() != want.NodeCount() {
		t.Fatalf("post-rollback nodes: incremental %d, full %d", got.NodeCount(), want.NodeCount())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("post-rollback edges diverge: incremental %d, full %d",
			len(got.Edges()), len(want.Edges()))
	}

	// And the repaired network verifies clean.
	if rep := p.Verify(policies); !rep.OK() {
		t.Fatalf("not repaired: %v", rep.Violations)
	}
}

// TestLoopInConsistentCutIsAPossibleState replays the two minimized
// schedules that used to fail the scenario harness's snapshot oracle with a
// "phantom loop" [x1 → x2 → x1] in an HBG-consistent snapshot (seed 31: one
// local-pref edit; seed 13: one LAG flap). The loop is there, and it is not
// phantom: the collected cut holds the whole ground-truth ancestry of every
// FIB event in it, and each router on the loop did hold the entry the
// snapshot gives it. It is the state one delayed update would produce — §5
// promises a possible state, not an instantaneous one — which is exactly
// the two facts the oracle now judges a loop by.
func TestLoopInConsistentCutIsAPossibleState(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		round    int
		schedule []scenario.Event
	}{
		{31, 1, []scenario.Event{
			{Round: 1, At: 108470332, Kind: scenario.KindConfigLP, A: "x0", B: "10.200.0.2", Value: 153}}},
		{13, 22, []scenario.Event{
			{Round: 22, At: 76802813, Kind: scenario.KindLagDown, A: "x0", B: "x1"},
			{Round: 22, At: 536385198, Kind: scenario.KindLagUp, A: "x0", B: "x1"}}},
	} {
		res := scenario.Run(scenario.Config{Seed: tc.seed, Shape: "ring", Mix: "ospf+bgp", Routers: 5,
			Rounds: tc.round + 1, Schedule: tc.schedule})
		if res.Failure != nil {
			t.Errorf("seed %d: %v", tc.seed, res.Failure)
			continue
		}
		met := false
		for _, l := range res.Loops {
			if l.Round != tc.round || !l.Concrete {
				continue
			}
			met = true
			if l.Open != "" || !l.EntriesReal {
				t.Errorf("seed %d: loop for %s from %s: cut open at %q, entries real %v; want a closed cut and real entries",
					tc.seed, l.Prefix, l.Source, l.Open, l.EntriesReal)
			}
		}
		if !met {
			t.Errorf("seed %d: round %d's snapshot no longer shows a concrete loop; the schedule no longer exercises the oracle", tc.seed, tc.round)
		}
	}
}
