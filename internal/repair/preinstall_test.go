package repair

import (
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/topology"
	"hbverify/internal/trie"
	"hbverify/internal/verify"
)

// Pre-install verification (§8: "We propose to capture FIB updates on all
// routers and run the verifier to check for correctness before we install
// updates."). PreInstall sits on a Gate and evaluates every FIB update
// against the policy suite on a scratch copy of the data plane before
// letting it through: updates that would increase the number of policy
// violations are withheld, and their root causes can be traced and
// repaired before the data plane ever degrades.
//
// The increase test (rather than "any violation") is what makes the gate
// usable during normal convergence, when transient states are legitimately
// imperfect: an update that leaves the violation count unchanged or
// improves it is always allowed.

// Decision records one pre-install verdict, for audit trails and tests.
type Decision struct {
	Router           string
	Update           fib.Update
	Allowed          bool
	ViolationsBefore int
	ViolationsAfter  int
}

// PreInstall is the §8 gatekeeper.
type PreInstall struct {
	gate     *Gate
	topo     *topology.Topology
	policies []verify.Policy
	sources  []string

	decisions []Decision
}

// NewPreInstall arms the gate: from now on every FIB update is verified
// against policies before it reaches the shadow data plane.
func NewPreInstall(n *network.Network, gate *Gate, policies []verify.Policy, sources []string) *PreInstall {
	pi := &PreInstall{gate: gate, topo: n.Topo, policies: policies, sources: sources}
	gate.SetBlock(pi.block)
	return pi
}

func (pi *PreInstall) violations(view map[string]*trie.Trie[fib.Entry]) int {
	w := dataplane.NewWalker(pi.topo, dataplane.SnapshotView(view))
	rep := verify.NewChecker(w, pi.sources).Check(pi.policies)
	return len(rep.Violations)
}

// block implements the Gate predicate: true = withhold.
func (pi *PreInstall) block(router string, u fib.Update) bool {
	before := pi.gate.Snapshot()
	base := pi.violations(before)
	after := before
	if u.Install {
		_ = after[router].Insert(u.Entry.Prefix, u.Entry)
	} else {
		after[router].Delete(u.Entry.Prefix)
	}
	next := pi.violations(after)
	d := Decision{Router: router, Update: u, Allowed: next <= base,
		ViolationsBefore: base, ViolationsAfter: next}
	pi.decisions = append(pi.decisions, d)
	return !d.Allowed
}

// Decisions returns the audit trail.
func (pi *PreInstall) Decisions() []Decision { return append([]Decision(nil), pi.decisions...) }

// WithheldUpdates returns the updates currently blocked by the gate.
func (pi *PreInstall) WithheldUpdates() []Withheld { return pi.gate.Withheld() }

// WithheldCauses collects the capture IDs of the withheld FIB updates —
// the starting points for root-cause tracing, so repair can run before
// any violation ever reaches the data plane.
func (pi *PreInstall) WithheldCauses() []uint64 {
	var out []uint64
	for _, w := range pi.gate.Withheld() {
		out = append(out, w.Update.IO.ID)
	}
	return out
}

// Discard clears the withheld queue without applying it; used after a
// successful root-cause repair made the withheld updates obsolete (the
// control plane has re-issued correct ones).
func (pi *PreInstall) Discard() { pi.gate.withheld = nil }

// TestPreInstallAllowsConvergence arms the §8 gate from t=0: normal
// convergence must pass through untouched (no update increases the
// violation count).
func TestPreInstallAllowsConvergence(t *testing.T) {
	pn, gate := buildUnstarted(t)
	policies := []verify.Policy{
		{Kind: verify.NoLoop, Prefix: pn.P},
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
	}
	pi := NewPreInstall(pn.Network, gate, policies, []string{"r1", "r2", "r3"})
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(pi.WithheldUpdates()); n != 0 {
		t.Fatalf("%d updates withheld during healthy convergence: %+v", n, pi.WithheldUpdates())
	}
	// Shadow data plane converged to the policy-compliant state.
	w := dataplane.NewWalker(pn.Topo, gate.View())
	walk := w.ForwardPrefix("r3", pn.P)
	if walk.Outcome != dataplane.Delivered || walk.Egress != "e2" {
		t.Fatalf("walk = %v", walk)
	}
	if len(pi.Decisions()) == 0 {
		t.Fatal("no decisions recorded")
	}
}

// buildUnstarted is like build but leaves Start to the caller so the gate
// can be armed before the first FIB update.
func buildUnstarted(t *testing.T) (*network.PaperNet, *Gate) {
	t.Helper()
	p, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	return p, NewGate(p.Network)
}

// findConfigChange locates the misconfiguration's capture ID.
func findConfigChange(t *testing.T, pn *network.PaperNet) uint64 {
	t.Helper()
	for _, io := range pn.Log.ForRouter("r2") {
		if io.Type == capture.ConfigChange && io.Detail == "set uplink local-pref 10" {
			return io.ID
		}
	}
	t.Fatal("config change not found")
	return 0
}

// TestPreInstallBlocksViolatingUpdates reproduces the paper's headline
// flow: the Fig. 2 misconfiguration's FIB updates are caught *before*
// installation; the data plane never violates; root causes are traced from
// the withheld updates; the rollback repair converges; the withheld queue
// is discarded as obsolete.
func TestPreInstallBlocksViolatingUpdates(t *testing.T) {
	pn, gate := buildUnstarted(t)
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	pi := NewPreInstall(pn.Network, gate, policies, []string{"r1", "r2", "r3"})
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	misconfigure(t, pn)

	// The data plane stayed compliant throughout.
	w := dataplane.NewWalker(pn.Topo, gate.View())
	rep := verify.NewChecker(w, []string{"r1", "r2", "r3"}).Check(policies)
	if !rep.OK() {
		t.Fatalf("data plane degraded despite the gate: %v", rep.Violations)
	}
	withheld := pi.WithheldUpdates()
	if len(withheld) == 0 {
		t.Fatal("nothing withheld")
	}
	// Root-cause the withheld updates before any violation existed.
	g := rulesInfer(pn.Log.View())
	foundCC := false
	for _, id := range pi.WithheldCauses() {
		for _, root := range g.RootCauses(id) {
			if root.Router == "r2" && root.Detail == "set uplink local-pref 10" {
				foundCC = true
			}
		}
	}
	if !foundCC {
		t.Fatal("withheld updates do not trace to the config change")
	}
	// Repair: roll back, reconverge, discard the stale queue.
	ref, ok := pn.ConfigEventRef(findConfigChange(t, pn))
	if !ok || ref.Version != 2 {
		t.Fatalf("config ref = %+v %v", ref, ok)
	}
	if _, err := pn.RollbackConfig(ref.Router, ref.Version-1); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	pi.Discard()
	if len(pi.WithheldUpdates()) != 0 {
		t.Fatal("discard failed")
	}
	// Control plane and shadow agree again on the compliant state.
	rep = verify.NewChecker(w, []string{"r1", "r2", "r3"}).Check(policies)
	if !rep.OK() {
		t.Fatalf("post-repair violations: %v", rep.Violations)
	}
	live, _ := pn.Router("r3").FIB.Exact(pn.P)
	shadow, _ := gate.Snapshot()["r3"].Exact(pn.P)
	if live.NextHop != shadow.NextHop {
		t.Fatalf("control/data divergence after repair: %v vs %v", live.NextHop, shadow.NextHop)
	}
}

// TestPreInstallDecisionAudit verifies the audit trail distinguishes
// allowed from blocked updates.
func TestPreInstallDecisionAudit(t *testing.T) {
	pn, gate := buildUnstarted(t)
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	pi := NewPreInstall(pn.Network, gate, policies, []string{"r1", "r2", "r3"})
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	misconfigure(t, pn)
	var allowed, blocked int
	for _, d := range pi.Decisions() {
		if d.Allowed {
			allowed++
			if d.ViolationsAfter > d.ViolationsBefore {
				t.Fatalf("allowed decision increased violations: %+v", d)
			}
		} else {
			blocked++
			if d.ViolationsAfter <= d.ViolationsBefore {
				t.Fatalf("blocked decision did not increase violations: %+v", d)
			}
		}
	}
	if allowed == 0 || blocked == 0 {
		t.Fatalf("allowed=%d blocked=%d", allowed, blocked)
	}
}
