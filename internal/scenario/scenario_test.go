package scenario

import (
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"testing"
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
// materialized schedule and capture-log length — the property replay and
// shrinking depend on.
func TestScenarioDeterminism(t *testing.T) {
	cfg, err := Materialize(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := Run(cfg), Run(cfg)
	if a.Failure != nil || b.Failure != nil {
		t.Fatalf("unexpected failures: %v / %v", a.Failure, b.Failure)
	}
	if a.IOs != b.IOs || a.Rounds != b.Rounds {
		t.Fatalf("runs diverge: %d IOs/%d rounds vs %d IOs/%d rounds", a.IOs, a.Rounds, b.IOs, b.Rounds)
	}
	if !reflect.DeepEqual(a.Config.Schedule, b.Config.Schedule) {
		t.Fatal("materialized schedules diverge between runs")
	}
}

// forceBug runs a seeded scenario with a known bug injected and requires
// the named oracle (or oracles) to catch it, the shrink to produce a
// reproducible artifact, and the artifact to reproduce the failure. The
// seed picks a schedule whose churn actually exposes the bug.
func forceBug(t *testing.T, seed int64, bug string, oracles ...string) {
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
	forceBug(t, 3, BugStaleCache, OracleIncremental, OracleRepair)
}

// TestForcedSkipRollback proves the repair-rollback oracle catches a
// repair engine that never applies its rollback.
func TestForcedSkipRollback(t *testing.T) {
	forceBug(t, 3, BugSkipRollback, OracleRepair)
}

// TestForcedStaleEqclass proves the eqclass-delta-vs-full oracle catches a
// delta pipeline whose FIB change feed is disconnected: the frozen
// classifier diverges from full Compute as soon as churn (or the round's
// fault injection) moves a FIB entry.
func TestForcedStaleEqclass(t *testing.T) {
	forceBug(t, 3, BugStaleEqclass, OracleEqclassDelta)
}

// TestForcedDropBatch proves the dist-vs-central oracle catches a
// transport that loses walk batches while reporting the round complete:
// the victim node's walks come back empty and diverge from the central
// walker immediately.
func TestForcedDropBatch(t *testing.T) {
	forceBug(t, 3, BugDropBatch, OracleDist)
}

// TestForcedSwapSendMatch proves the infer-fast-vs-reference oracle
// catches an inverted tie-break in the indexed send/recv matcher: with
// multiple in-window candidate sends, the bugged fast path attributes the
// recv to the furthest send and diverges from the reference edge set.
// (The same wrong edges can also surface first through the repair engine's
// root-cause walk.)
func TestForcedSwapSendMatch(t *testing.T) {
	forceBug(t, 4, BugSwapSendMatch, OracleInferRef, OracleRepair)
}

// TestForcedSkipFold proves the compaction-vs-full oracle catches a
// compactor that evicts capture events before folding their edges into
// the cached graph: once the round's history ages past the retention
// floor, the unfolded events' nodes and edges are simply gone from the
// window graph while the pruned full inference still has them.
func TestForcedSkipFold(t *testing.T) {
	forceBug(t, 3, BugSkipFold, OracleCompaction)
}

// TestForcedDropEcmpBranch proves the symbolic-vs-probe oracle catches a
// set-walker that silently skips an ECMP branch. The fat-tree OSPF world
// guarantees equal-cost fan-out (every edge router is dual-homed to both
// cores), so concrete probe enumeration finds paths through the branch the
// bugged symbolic walk never recorded.
func TestForcedDropEcmpBranch(t *testing.T) {
	forceBugCfg(t, Config{Seed: 3, Shape: "fattree", Mix: "ospf", Routers: 6, Bug: BugDropEcmpBranch},
		OracleSymbolic)
}

// TestForcedInternAlias proves the intern-vs-copy oracle catches a canonical
// attribute table that aliases distinct sets. The BGP mix has e1 (AS 100)
// and e2 (AS 200) announcing the multi-homed prefix P with single-AS paths
// differing only in that AS, exactly what the wildcarded first-AS hash
// collapses; some speaker then retains an AS path no wire message carried.
func TestForcedInternAlias(t *testing.T) {
	forceBugCfg(t, Config{Seed: 3, Mix: "ospf+bgp", Bug: BugInternAlias}, OracleInternCopy)
}

// TestForcedStalePlan proves the serve-vs-batch oracle catches a query
// engine whose plan cache stops hearing invalidations: the first round's
// walks are pinned, the next round's churn moves forwarding for a queried
// plan, and the pinned answer diverges from the fresh batch check.
func TestForcedStalePlan(t *testing.T) {
	forceBug(t, 3, BugStalePlan, OracleServe)
}

// TestForcedSkipLocalCheck proves the localcheck-superset oracle catches
// a local-check mode whose per-router checkers are silenced: on the
// oracle's update-in-flight snapshot a labeled router loses its covering
// route, the central walker fails the class, and with no local flag (and
// fresh labels vouching for the source) the superset property breaks.
func TestForcedSkipLocalCheck(t *testing.T) {
	forceBug(t, 3, BugSkipLocalCheck, OracleLocalCheck)
}

// TestForcedStaleDerive proves the incremental-vs-full oracle's random cuts
// catch a derive path that keeps the cached in-edges of a hidden event's
// children: a child whose nearest match was hidden has a next-nearest one a
// full inference of the cut finds and the stale graph lacks.
func TestForcedStaleDerive(t *testing.T) {
	forceBug(t, 4, BugStaleDerive, OracleIncremental)
}

// TestForcedNarrowTail proves the oracle's dripped cache sees a suffix
// boundary the round-at-a-time one never does: an extension that re-derives
// only from the suffix's earliest time on leaves an older receive on the send
// a nearer suffix send displaced (seed 47, ring: round 8, 351->360).
func TestForcedNarrowTail(t *testing.T) {
	forceBugCfg(t, Config{Seed: 47, Shape: "ring", Rounds: 9, Bug: BugNarrowTail}, OracleIncremental)
}

// TestForcedSkipCutExtension proves the snapshot oracle catches a verifier
// that takes the first lagged cut as it comes: the loop it shows sits in a
// cut that lacks the send behind a collected receive.
func TestForcedSkipCutExtension(t *testing.T) {
	forceBugCfg(t, Config{Seed: 1, Shape: "ring", Rounds: 5, Bug: BugSkipCutExtension}, OracleSnapshot)
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
	cfg, err := Materialize(Config{Seed: 5, Bug: BugSkipRollback})
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
