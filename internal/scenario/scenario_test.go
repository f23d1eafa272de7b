package scenario

import (
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/fault"
	"hbverify/internal/hbg"
)

// rounds is the opt-in soak knob: `go test ./internal/scenario
// -scenario.rounds=25` runs each seed through 25 churn rounds instead of
// the quick default.
var rounds = flag.Int("scenario.rounds", 0, "churn rounds per scenario seed (0 = quick default)")

// TestScenario drives ten seeded scenarios through churn and the eight
// differential oracles. Each seed is a subtest so a failure names the
// seed directly.
func TestScenario(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		norm := Normalize(Config{Seed: seed})
		t.Run(fmt.Sprintf("seed%d-%s-%s", seed, norm.Shape, norm.Mix), func(t *testing.T) {
			cfg := Config{Seed: seed, Rounds: *rounds}
			res := Run(cfg)
			if res.Failure != nil {
				_, report := ReportFailure(res.Config, *res.Failure, t.TempDir())
				t.Fatal(report)
			}
			if res.IOs == 0 {
				t.Fatalf("seed %d: no IOs captured", seed)
			}
		})
	}
}

// TestScenarioDeterminism re-runs one scenario and requires the identical
// materialized schedule and a byte-identical capture log — the property
// replay and shrinking depend on.
func TestScenarioDeterminism(t *testing.T) {
	cfg, err := Materialize(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := Run(cfg), Run(cfg)
	if a.Failure != nil || b.Failure != nil {
		t.Fatalf("unexpected failures: %v / %v", a.Failure, b.Failure)
	}
	if a.IOs != b.IOs || a.Rounds != b.Rounds || a.Digest != b.Digest {
		t.Fatalf("runs diverge: %d IOs/%d rounds/digest %x vs %d IOs/%d rounds/digest %x",
			a.IOs, a.Rounds, a.Digest, b.IOs, b.Rounds, b.Digest)
	}
	if !reflect.DeepEqual(a.Config.Schedule, b.Config.Schedule) {
		t.Fatal("materialized schedules diverge between runs")
	}
}

// forceBug runs a seeded scenario with a known bug injected and requires
// the named oracle (or oracles) to catch it, the shrink to produce a
// reproducible artifact, and the artifact to reproduce the failure. The
// seed picks a schedule whose churn actually exposes the bug.
func forceBug(t *testing.T, seed int64, bug fault.Bug, oracles ...string) {
	t.Helper()
	forceBugCfg(t, Config{Seed: seed, Bug: bug}, oracles...)
}

func forceBugCfg(t *testing.T, cfg Config, oracles ...string) {
	t.Helper()
	res := Run(cfg)
	if res.Failure == nil {
		t.Fatalf("bug %q not caught by any oracle", cfg.Bug)
	}
	found := false
	for _, o := range oracles {
		if res.Failure.Oracle == o {
			found = true
		}
	}
	if !found {
		t.Fatalf("bug %q caught by oracle %q, want one of %v", cfg.Bug, res.Failure.Oracle, oracles)
	}

	a, report := ReportFailure(res.Config, *res.Failure, t.TempDir())
	t.Logf("forced-bug report:\n%s", report)
	if len(a.Config.Schedule) > len(res.Config.Schedule) {
		t.Fatalf("shrink grew the schedule: %d > %d", len(a.Config.Schedule), len(res.Config.Schedule))
	}

	// The artifact must reproduce: round-trip through JSON and re-run.
	data, err := json.Marshal(a.Config)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schedule == nil {
		back.Schedule = []Event{}
	}
	rerun := Run(back)
	if rerun.Failure == nil {
		t.Fatal("minimized artifact no longer fails")
	}
	if rerun.Failure.Oracle != a.Failure.Oracle {
		t.Fatalf("artifact fails oracle %q, original failed %q", rerun.Failure.Oracle, a.Failure.Oracle)
	}
}

// TestForcedStaleCache proves the incremental-vs-full oracle catches a
// cache that never refreshes. (With the frozen graph the repair engine can
// also trip first on round 0, before the cache visibly diverges.)
func TestForcedStaleCache(t *testing.T) {
	forceBug(t, 3, fault.StaleCache, OracleIncremental, OracleRepair)
}

// TestForcedSkipRollback proves the repair-rollback oracle catches a
// repair engine that never applies its rollback.
func TestForcedSkipRollback(t *testing.T) {
	forceBug(t, 3, fault.SkipRollback, OracleRepair)
}

// TestForcedStaleEqclass proves the eqclass-delta-vs-full oracle catches a
// delta pipeline whose FIB change feed is disconnected: the frozen
// classifier diverges from full Compute as soon as churn (or the round's
// fault injection) moves a FIB entry.
func TestForcedStaleEqclass(t *testing.T) {
	forceBug(t, 3, fault.StaleEqclass, OracleEqclassDelta)
}

// TestForcedDropBatch proves the dist-vs-central oracle catches a
// transport that loses walk batches while reporting the round complete:
// the victim node's walks come back empty and diverge from the central
// walker immediately.
func TestForcedDropBatch(t *testing.T) {
	forceBug(t, 3, fault.DropBatch, OracleDist)
}

// TestForcedSwapSendMatch proves the infer-fast-vs-reference oracle
// catches a channel table read from the wrong end: with several sends
// queued ahead of their receives, the bugged fast path pairs a receive with
// the newest and diverges from the reference's scan. (The same wrong edges
// can also surface first through the repair engine's root-cause walk.)
func TestForcedSwapSendMatch(t *testing.T) {
	forceBug(t, 4, fault.SwapSendMatch, OracleInferRef, OracleRepair)
}

// TestForcedSkipChannelEpoch proves the incremental-vs-full oracle catches
// a channel table whose epochs never advance: the LSA a link failure lost
// stays queued in the one epoch, and the next receive on that adjacency
// passes over it — a desync on a log that lost no line.
func TestForcedSkipChannelEpoch(t *testing.T) {
	forceBugCfg(t, Config{Seed: 2, Bug: fault.SkipChannelEpoch}, OracleIncremental)
}

// TestForcedSkipFold proves the compaction-vs-full oracle catches a
// compactor that evicts capture events before folding their edges into
// the cached graph: once the round's history ages past the retention
// floor, the unfolded events' nodes and edges are simply gone from the
// window graph while the pruned full inference still has them.
func TestForcedSkipFold(t *testing.T) {
	forceBug(t, 3, fault.SkipFold, OracleCompaction)
}

// TestForcedDropEcmpBranch proves the symbolic-vs-probe oracle catches a
// set-walker that silently skips an ECMP branch. The fat-tree OSPF world
// guarantees equal-cost fan-out (every edge router is dual-homed to both
// cores), so concrete probe enumeration finds paths through the branch the
// bugged symbolic walk never recorded.
func TestForcedDropEcmpBranch(t *testing.T) {
	forceBugCfg(t, Config{Seed: 3, Shape: "fattree", Mix: "ospf", Routers: 6, Bug: fault.DropEcmpBranch},
		OracleSymbolic)
}

// TestForcedInternAlias proves the intern-vs-copy oracle catches a canonical
// attribute table that aliases distinct sets. The BGP mix has e1 (AS 100)
// and e2 (AS 200) announcing the multi-homed prefix P with single-AS paths
// differing only in that AS, exactly what the wildcarded first-AS hash
// collapses; some speaker then retains an AS path no wire message carried.
func TestForcedInternAlias(t *testing.T) {
	forceBugCfg(t, Config{Seed: 3, Mix: "ospf+bgp", Bug: fault.InternAlias}, OracleInternCopy)
}

// TestForcedStalePlan proves the serve-vs-batch oracle catches a query
// engine whose plan cache stops hearing invalidations: the first round's
// walks are pinned, the next round's churn moves forwarding for a queried
// plan, and the pinned answer diverges from the fresh batch check.
func TestForcedStalePlan(t *testing.T) {
	forceBug(t, 3, fault.StalePlan, OracleServe)
}

// TestForcedSkipLocalCheck proves the localcheck-superset oracle catches
// a local-check mode whose per-router checkers are silenced: on the
// oracle's update-in-flight snapshot a labeled router loses its covering
// route, the central walker fails the class, and with no local flag (and
// fresh labels vouching for the source) the superset property breaks.
func TestForcedSkipLocalCheck(t *testing.T) {
	forceBug(t, 3, fault.SkipLocalCheck, OracleLocalCheck)
}

// TestForcedSkipCutExtension proves the snapshot oracle catches a verifier
// that takes the first lagged cut as it comes: the loop it shows sits in a
// cut that lacks the send behind a collected receive.
func TestForcedSkipCutExtension(t *testing.T) {
	forceBugCfg(t, Config{Seed: 1, Shape: "ring", Rounds: 5, Bug: fault.SkipCutExtension}, OracleSnapshot)
}

// TestForcedFIBAncestryOnly proves the snapshot oracle's part (d) catches a
// consistency check that examines only the receives in the collected FIB
// updates' inferred ancestry: the graph-driven cut stops short of the one
// message accounting reaches.
func TestForcedFIBAncestryOnly(t *testing.T) {
	forceBug(t, 3, fault.FIBAncestryOnly, OracleSnapshot)
}

// TestForcedStaleFrontier proves the snapshot oracle's part (d) catches a
// snapshot frontier that keeps its FIB replay when a cut hides part of it:
// after a verdict on the whole log, the lagged cut's snapshot holds entries
// the cut never collected, and its walks differ from a cold replay's.
func TestForcedStaleFrontier(t *testing.T) {
	forceBug(t, 3, fault.StaleFrontier, OracleSnapshot)
}

// requireClosedCuts runs a scenario the snapshot oracle must pass — it
// fails on any lagged cut ConsistentCollect and VerifySnapshot call
// consistent that lacks part of the ground-truth ancestry of a FIB event in
// it — with a cut every round, some called consistent, and the channel
// table in step with every send.
func requireClosedCuts(t *testing.T, cfg Config) {
	t.Helper()
	res := Run(cfg)
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
	consistent := 0
	for _, c := range res.Cuts {
		if c.Consistent {
			consistent++
		}
	}
	if len(res.Cuts) != cfg.Rounds || consistent == 0 || res.Desync != 0 {
		t.Fatalf("%d cuts over %d rounds, %d consistent, %d channel desyncs", len(res.Cuts), cfg.Rounds, consistent, res.Desync)
	}
}

// TestCutClosedRingSeed25 and TestCutClosedMeshSeed27 replay two runs whose
// lagged cuts were called consistent while open when only the receives in
// the FIB updates' inferred ancestry were checked: a receive whose send the
// cut lacked had no inferred parent, and inference did not tie the install
// it caused to the FIB update ground truth says depends on it.
func TestCutClosedRingSeed25(t *testing.T) {
	requireClosedCuts(t, Config{Seed: 25, Shape: "ring", Rounds: 25})
}

func TestCutClosedMeshSeed27(t *testing.T) {
	requireClosedCuts(t, Config{Seed: 27, Shape: "mesh", Rounds: 25})
}

// TestCutClosedMeshSeed60 and TestCutClosedFattreeSeed39 replay the runs
// whose cuts stayed open when a receive's send was the nearest same-key
// send in time: two receives could share one send, so a cut holding the
// earlier send was closed for a receive whose own send it lacked — a
// phantom loop in seed 60's last round. A receive's place on its channel
// names its own send.
func TestCutClosedMeshSeed60(t *testing.T) {
	requireClosedCuts(t, Config{Seed: 60, Shape: "mesh", Rounds: 8})
}

func TestCutClosedFattreeSeed39(t *testing.T) {
	requireClosedCuts(t, Config{Seed: 39, Shape: "fattree", Rounds: 25})
}

// TestCutClosedISPRRSeed21 replays a run with route-reflector session
// resets, which lose the messages in flight on a loopback iBGP session
// whose link never fails. Only the logged session-down opens the next
// epoch on both ends; a link event advancing it would pair a withdrawal
// with a later advert.
func TestCutClosedISPRRSeed21(t *testing.T) {
	requireClosedCuts(t, Config{Seed: 21, Shape: "isp-rr", Rounds: 25})
}

// TestUnknownBugFailsTheHarness: a bug name the fault package does not know
// is a harness failure, not a healthy run with nothing injected.
// TestGraphDiffNamesLowestDifference: a failure's detail names its two
// sides by the labels given and the lowest node, else edge, only one side
// has — the same one on every run, so an artifact's detail is reproducible.
func TestGraphDiffNamesLowestDifference(t *testing.T) {
	graph := func(ids []uint64, edges ...[2]uint64) *hbg.Graph {
		g := hbg.New()
		for _, id := range ids {
			g.AddNode(capture.IO{ID: id, Router: "r1"})
		}
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		return g
	}
	a := graph([]uint64{1, 2, 3, 4}, [2]uint64{1, 2}, [2]uint64{1, 3}, [2]uint64{2, 4}, [2]uint64{3, 4})
	b := graph([]uint64{1, 2, 3, 4}, [2]uint64{1, 2}, [2]uint64{1, 4}, [2]uint64{2, 3}, [2]uint64{2, 4}, [2]uint64{3, 4})
	c := graph([]uint64{1, 2, 4, 5})
	for _, tc := range []struct {
		got, want *hbg.Graph
		gl, wl    string
		detail    string
	}{
		{a, b, "fast", "reference", "edge sets differ: fast=4 reference=5 (first diff: 1->3 only in fast)"},
		{b, a, "derived", "full", "edge sets differ: derived=5 full=4 (first diff: 1->3 only in full)"},
		{b, b, "window", "full", ""},
		{a, c, "dripped", "full", "node sets differ: dripped=4 full=4 (first diff: io 3 only in dripped)"},
		{c, a, "incremental", "full", "node sets differ: incremental=4 full=4 (first diff: io 3 only in full)"},
	} {
		if got := graphDiffLabeled(tc.got, tc.want, tc.gl, tc.wl); got != tc.detail {
			t.Errorf("graphDiffLabeled(%s, %s) = %q, want %q", tc.gl, tc.wl, got, tc.detail)
		}
	}
}

func TestUnknownBugFailsTheHarness(t *testing.T) {
	res := Run(Config{Seed: 3, Bug: "typo"})
	if res.Failure == nil || res.Failure.Oracle != "harness" {
		t.Fatalf("failure = %v, want a harness failure", res.Failure)
	}
}

// TestLoopInConsistentCutIsAPossibleState replays the two minimized
// schedules that used to fail the snapshot oracle with a "phantom loop"
// [x1 → x2 → x1] in an HBG-consistent snapshot (seed 31: one local-pref
// edit; seed 13: one LAG flap). The loop is there, and it is not phantom:
// the collected cut holds the whole ground-truth ancestry of every FIB event
// in it, and each router on the loop did hold the entry the snapshot gives
// it. It is the state one delayed update would produce — §5 promises a
// possible state, not an instantaneous one — which is exactly the two facts
// the oracle now judges a loop by.
func TestLoopInConsistentCutIsAPossibleState(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		round    int
		schedule []Event
	}{
		{31, 1, []Event{
			{Round: 1, At: 108470332, Kind: KindConfigLP, A: "x0", B: "10.200.0.2", Value: 153}}},
		{13, 22, []Event{
			{Round: 22, At: 76802813, Kind: KindLagDown, A: "x0", B: "x1"},
			{Round: 22, At: 536385198, Kind: KindLagUp, A: "x0", B: "x1"}}},
	} {
		res := Run(Config{Seed: tc.seed, Shape: "ring", Mix: "ospf+bgp", Routers: 5,
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

// TestScenarioScaleShapes drives the scale shapes — the 4-ary fat-tree and
// the ISP route-reflector hierarchy from internal/network — through churn
// and the full oracle set, with the walk-driven oracles sourcing from the
// seeded verifySources sample. These shapes are explicit-only (Normalize
// never draws them), so this is their coverage.
func TestScenarioScaleShapes(t *testing.T) {
	for _, shape := range []string{"fattree-k4", "isp-rr"} {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			res := Run(Config{Seed: 2, Shape: shape, Rounds: 2})
			if res.Failure != nil {
				_, report := ReportFailure(res.Config, *res.Failure, t.TempDir())
				t.Fatal(report)
			}
			if res.IOs == 0 {
				t.Fatal("no IOs captured")
			}
		})
	}
}

// TestISPRRScheduleKinds asserts the isp-rr generator draws the
// reflector-flap and prefix-burst churn kinds — with well-formed hub,
// client, and burst fields — and that the classic shapes, whose hub and
// origin pools are empty, never draw them (their seeded schedules must
// stay byte-identical to before these kinds existed).
func TestISPRRScheduleKinds(t *testing.T) {
	seenFlap, seenBurst := false, false
	for seed := int64(1); seed <= 6; seed++ {
		cfg, err := Materialize(Config{Seed: seed, Shape: "isp-rr", Rounds: 4})
		if err != nil {
			t.Fatal(err)
		}
		withdrawn := map[string]bool{}
		for _, ev := range cfg.Schedule {
			switch ev.Kind {
			case KindRRFlap:
				seenFlap = true
				if ev.A == "" || len(ev.Peers) == 0 {
					t.Fatalf("seed %d: malformed rr flap %s", seed, ev)
				}
			case KindPrefixBurst:
				seenBurst = true
				if got := burstPrefixes(ev.Prefix, ev.Value); len(got) != int(ev.Value) || ev.Value < 2 {
					t.Fatalf("seed %d: burst %s expands to %d prefixes", seed, ev, len(got))
				}
			case KindPrefixWithdraw:
				withdrawn[ev.Prefix] = true
			}
		}
		// Every burst retracts within its round pair.
		for _, ev := range cfg.Schedule {
			if ev.Kind == KindPrefixBurst && !withdrawn[ev.Prefix] {
				t.Fatalf("seed %d: burst %s never withdrawn", seed, ev)
			}
		}
	}
	if !seenFlap || !seenBurst {
		t.Fatalf("isp-rr schedules across seeds drew flap=%v burst=%v, want both", seenFlap, seenBurst)
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg, err := Materialize(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range cfg.Schedule {
			if ev.Kind == KindRRFlap || ev.Kind == KindPrefixBurst || ev.Kind == KindPrefixWithdraw {
				t.Fatalf("classic shape drew scale-only kind: %s", ev)
			}
		}
	}
}

// TestShrinkPreservesFailure checks the shrinker's contract directly on a
// forced failure: the minimized config still fails the same oracle.
func TestShrinkPreservesFailure(t *testing.T) {
	cfg, err := Materialize(Config{Seed: 5, Bug: fault.SkipRollback})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(cfg)
	if res.Failure == nil {
		t.Fatal("forced bug did not fail")
	}
	small := Shrink(cfg, *res.Failure, 0)
	if len(small.Schedule) > len(cfg.Schedule) {
		t.Fatal("shrink grew the schedule")
	}
	again := Run(small)
	if again.Failure == nil || again.Failure.Oracle != res.Failure.Oracle {
		t.Fatalf("shrunk config failure = %v, want oracle %s", again.Failure, res.Failure.Oracle)
	}
}
