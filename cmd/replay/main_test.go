package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hbverify/internal/fault"
	"hbverify/internal/scenario"
)

func TestGenerateAndAnalyze(t *testing.T) {
	dir := t.TempDir()
	if err := generate(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	haveMap := false
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".log":
			logs = append(logs, filepath.Join(dir, e.Name()))
		case ".map":
			haveMap = true
		}
	}
	if len(logs) != 5 || !haveMap {
		t.Fatalf("generated %d logs, map=%v", len(logs), haveMap)
	}
	if err := analyze(logs, false); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeMissingFile(t *testing.T) {
	if err := analyze([]string{"/nonexistent/r1.log"}, false); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunScenarioSeed(t *testing.T) {
	var b strings.Builder
	failed, err := runScenario(scenario.Config{Seed: 1}, "", &b)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("seed 1 failed an oracle:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "all oracles passed") {
		t.Fatalf("unexpected output:\n%s", b.String())
	}
}

// TestRunScenarioSchedule writes a forced-failure artifact and replays it
// through the exact path the printed repro command uses.
func TestRunScenarioSchedule(t *testing.T) {
	cfg, err := scenario.Materialize(scenario.Config{Seed: 3, Bug: fault.SkipRollback})
	if err != nil {
		t.Fatal(err)
	}
	res := scenario.Run(cfg)
	if res.Failure == nil {
		t.Fatal("forced bug did not fail")
	}
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := scenario.WriteArtifact(path, scenario.Artifact{Config: res.Config, Failure: *res.Failure}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	failed, err := runScenario(scenario.Config{}, path, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("artifact replay did not reproduce the failure:\n%s", b.String())
	}
	if !strings.Contains(b.String(), res.Failure.Oracle) {
		t.Fatalf("replay output does not name oracle %q:\n%s", res.Failure.Oracle, b.String())
	}
}

// TestUnknownBugIsAUsageError: a mistyped -bug must not run a healthy
// scenario and exit 0; it exits 2 and names the bugs there are. The test
// binary re-runs itself as replay to see main's exit code.
func TestUnknownBugIsAUsageError(t *testing.T) {
	if os.Getenv("REPLAY_TEST_MAIN") == "1" {
		os.Args = []string{"replay", "-seed", "3", "-bug", "no-such-bug"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownBugIsAUsageError$")
	cmd.Env = append(os.Environ(), "REPLAY_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("replay -bug no-such-bug: %v, want exit status 2\nstderr:\n%s", err, stderr.String())
	}
	for _, b := range fault.Bugs {
		if !strings.Contains(stderr.String(), string(b)) {
			t.Fatalf("stderr does not list bug %q:\n%s", b, stderr.String())
		}
	}
}

func TestRunScenarioBadArtifact(t *testing.T) {
	if _, err := runScenario(scenario.Config{}, "/nonexistent/artifact.json", &strings.Builder{}); err == nil {
		t.Fatal("missing artifact accepted")
	}
}

func TestLoadResolverWithoutMap(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "r1.log")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	resolve, neighbor, err := loadResolver([]string{f})
	if err != nil {
		t.Fatal(err)
	}
	if resolve == nil || neighbor == nil {
		t.Fatal("nil resolver")
	}
}
