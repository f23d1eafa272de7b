package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hbverify/internal/capture"
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

// TestReadArtifactRejectsUnknownFields: an artifact naming a setting this
// version does not have — here the injected bug that artifacts once carried —
// is an error naming the field, not a replay of some other, healthy run.
func TestReadArtifactRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.json")
	data := `{"config": {"seed": 3, "bug": "skip-rollback", "schedule": []}, "failure": {"oracle": "repair-rollback"}}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(path); err == nil || !strings.Contains(err.Error(), `unknown field "bug"`) {
		t.Fatalf("ReadArtifact = %v, want an error naming the unknown field \"bug\"", err)
	}
	cfg, err := Materialize(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteArtifact(path, Artifact{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if a, err := ReadArtifact(path); err != nil || !reflect.DeepEqual(a.Config, cfg) {
		t.Fatalf("round trip: %v, config equal %v", err, err == nil && reflect.DeepEqual(a.Config, cfg))
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"config": {"seed": 4}}`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ReadArtifact(path); err == nil {
		t.Fatal("an artifact followed by a second one was accepted")
	}
}

// TestShrinkPreservesFailure checks the shrinker's contract directly: the
// minimized config still fails the same oracle, with no more events. A world
// that cannot be built fails every run as a harness failure, whatever its
// schedule, so every event drops. Shrinks of oracle failures are checked by
// .github/mutate.go, whose failing runs each shrink and replay an artifact.
func TestShrinkPreservesFailure(t *testing.T) {
	cfg, err := Materialize(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shape = "no-such-shape"
	res := Run(cfg)
	if res.Failure == nil || res.Failure.Oracle != "harness" || len(cfg.Schedule) == 0 {
		t.Fatalf("failure = %v with %d events, want a harness failure with a schedule", res.Failure, len(cfg.Schedule))
	}
	small := Shrink(cfg, *res.Failure, 0)
	if len(small.Schedule) != 0 {
		t.Fatalf("shrink kept %d of %d events, want none", len(small.Schedule), len(cfg.Schedule))
	}
	again := Run(small)
	if again.Failure == nil || again.Failure.Oracle != res.Failure.Oracle {
		t.Fatalf("shrunk config failure = %v, want oracle %s", again.Failure, res.Failure.Oracle)
	}
}
