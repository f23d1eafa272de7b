package hbverify

import (
	"os/exec"
	"testing"
)

// TestMutationAnchorsResolve: every defect .github/mutate.go plants — the
// proof that each scenario oracle can fail — still finds its anchor exactly
// once, so a refactor that rewrites an anchored line fails here and not
// only in CI's forced-bugs job, which plants and runs them all.
func TestMutationAnchorsResolve(t *testing.T) {
	out, err := exec.Command("go", "run", ".github/mutate.go", "-check").CombinedOutput()
	if err != nil {
		t.Fatalf("go run .github/mutate.go -check: %v\n%s", err, out)
	}
}
