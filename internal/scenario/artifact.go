// Failure artifacts: a JSON file holding the exact (seed, schedule,
// shape, mix) that reproduces an oracle failure, plus the human-readable
// report printed when a scenario test fails.

package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Artifact is the on-disk reproduction record for one failure.
type Artifact struct {
	Config  Config  `json:"config"`
	Failure Failure `json:"failure"`
}

// WriteArtifact persists the artifact as indented JSON at path.
func WriteArtifact(path string, a Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadArtifact loads an artifact written by WriteArtifact. A field this
// version does not know is an error: a run it configured cannot be
// reproduced, so replaying without it would report on another run.
func ReadArtifact(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return a, fmt.Errorf("artifact %s: %w", path, err)
	}
	if dec.More() {
		return a, fmt.Errorf("artifact %s: data after the artifact", path)
	}
	return a, nil
}

// FailureReport renders the failure, the minimized schedule, and the
// one-command reproduction line for test logs.
func FailureReport(a Artifact, path string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario failure: %s\n", a.Failure.Error())
	fmt.Fprintf(&b, "  seed=%d shape=%s mix=%s routers=%d rounds=%d",
		a.Config.Seed, a.Config.Shape, a.Config.Mix, a.Config.Routers, a.Config.Rounds)
	fmt.Fprintf(&b, "\n  minimized schedule (%d events):\n", len(a.Config.Schedule))
	for _, ev := range a.Config.Schedule {
		fmt.Fprintf(&b, "    %s\n", ev)
	}
	if path != "" {
		fmt.Fprintf(&b, "  artifact: %s\n", path)
		fmt.Fprintf(&b, "  reproduce: go run ./cmd/replay -schedule %s\n", path)
	}
	return b.String()
}

// ReportFailure shrinks the failing config, writes the artifact to dir
// (os.TempDir() when empty), and returns the rendered report. It is the
// one call sites use so every failure path prints the same way.
func ReportFailure(cfg Config, failure Failure, dir string) (Artifact, string) {
	mat, err := Materialize(cfg)
	if err == nil {
		cfg = mat
	}
	cfg = Shrink(cfg, failure, 0)
	// Re-run the minimized schedule so the reported failure detail matches
	// what the artifact reproduces.
	if res := Run(cfg); res.Failure != nil && res.Failure.Oracle == failure.Oracle {
		failure = *res.Failure
	}
	a := Artifact{Config: cfg, Failure: failure}
	if dir == "" {
		dir = os.TempDir()
	}
	path := fmt.Sprintf("%s/scenario-seed%d-%s.json", dir, cfg.Seed, failure.Oracle)
	if err := WriteArtifact(path, a); err != nil {
		path = ""
	}
	return a, FailureReport(a, path)
}
