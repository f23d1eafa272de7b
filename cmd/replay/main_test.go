package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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

// TestRunScenarioSchedule writes a run's artifact and replays it through
// the exact path the printed repro command uses: the replay is the same run,
// down to the capture log's digest. Failing artifacts are replayed by
// .github/mutate.go, which builds replay with a known defect planted.
func TestRunScenarioSchedule(t *testing.T) {
	cfg, err := scenario.Materialize(scenario.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := scenario.WriteArtifact(path, scenario.Artifact{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	var direct, replayed strings.Builder
	if failed, err := runScenario(cfg, "", &direct); err != nil || failed {
		t.Fatalf("seed 3: failed=%v err=%v\n%s", failed, err, direct.String())
	}
	failed, err := runScenario(scenario.Config{}, path, &replayed)
	if err != nil || failed {
		t.Fatalf("artifact replay: failed=%v err=%v\n%s", failed, err, replayed.String())
	}
	if got, want := replayed.String(), direct.String(); !strings.HasPrefix(got, "replaying artifact "+path) || !strings.HasSuffix(got, want) {
		t.Fatalf("artifact replay printed\n%s\nwant the direct run's output\n%s", got, want)
	}
}

// TestUnknownBugIsAUsageError: replay injects no bug — a defect is planted
// in the source by .github/mutate.go — so a -bug left in a script is a
// usage error, exit 2, and not a healthy run that exits 0. The test binary
// re-runs itself as replay to see main's exit code.
func TestUnknownBugIsAUsageError(t *testing.T) {
	if os.Getenv("REPLAY_TEST_MAIN") == "1" {
		os.Args = []string{"replay", "-seed", "3", "-bug", "skip-rollback"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownBugIsAUsageError$")
	cmd.Env = append(os.Environ(), "REPLAY_TEST_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("replay -bug skip-rollback: %v, want exit status 2\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -bug") {
		t.Fatalf("stderr does not name the flag:\n%s", stderr.String())
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
