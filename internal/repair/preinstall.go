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

package repair

import (
	"net/netip"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/topology"
	"hbverify/internal/verify"
)

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

func (pi *PreInstall) violations(view map[string]map[netip.Prefix]fib.Entry) int {
	w := dataplane.NewWalker(pi.topo, dataplane.SnapshotView(view))
	rep := verify.NewChecker(w, pi.sources).Check(pi.policies)
	return len(rep.Violations)
}

// block implements the Gate predicate: true = withhold.
func (pi *PreInstall) block(router string, u fib.Update) bool {
	before := pi.gate.Snapshot()
	base := pi.violations(before)
	after := before
	if after[router] == nil {
		after[router] = map[netip.Prefix]fib.Entry{}
	}
	if u.Install {
		after[router][u.Entry.Prefix] = u.Entry
	} else {
		delete(after[router], u.Entry.Prefix)
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
