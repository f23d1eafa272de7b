// Package whatif answers hypothetical questions about a running network by
// converging an emulated copy and injecting events into it — the approach
// §8 sketches via CrystalNet ("runs an emulated copy of the network and
// can inject faults"). The copy is built from a network Blueprint, so the
// real network is never touched: operators can ask "what if this link
// fails?" or "what if I commit this configuration change?" and see the
// verifier's verdict on the would-be data plane first.
package whatif

import (
	"fmt"
	"net/netip"

	"hbverify/internal/config"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

// Change is a hypothetical event injected into the emulated copy after it
// has converged to the real network's state.
type Change func(n *network.Network) error

// LinkFailure asks: what if the link between a and b goes down?
func LinkFailure(a, b string) Change {
	return func(n *network.Network) error {
		_, err := n.SetLinkUp(a, b, false)
		return err
	}
}

// LinkRecovery asks: what if the link between a and b comes back?
func LinkRecovery(a, b string) Change {
	return func(n *network.Network) error {
		_, err := n.SetLinkUp(a, b, true)
		return err
	}
}

// ConfigUpdate asks: what if this configuration change were committed?
func ConfigUpdate(router, comment string, mutate func(*config.Router)) Change {
	return func(n *network.Network) error {
		_, err := n.UpdateConfig(router, comment, mutate)
		return err
	}
}

// Result is the verdict on the hypothetical network.
type Result struct {
	// Baseline is the verification report on the copy before any change —
	// a sanity check that the emulation reproduced the real state.
	Baseline verify.Report
	// Report is the verdict after the hypothetical changes converged.
	Report verify.Report
	// FIBs is the would-be data plane, for inspection and diffing.
	FIBs map[string]map[netip.Prefix]fib.Entry
	// Events counts the control-plane I/Os the hypothetical produced.
	Events int
}

// OK reports whether the hypothetical keeps the policies satisfied.
func (r Result) OK() bool { return r.Report.OK() }

// NewViolations returns the violations the hypothetical *introduced*:
// those in the post-change report whose (policy, source) was clean in the
// baseline. Pre-existing violations are not the commit's fault, so "would
// this commit break anything" is answered by this set being empty.
func (r Result) NewViolations() []verify.Violation {
	if len(r.Report.Violations) == 0 {
		return nil
	}
	base := make(map[string]struct{}, len(r.Baseline.Violations))
	for _, v := range r.Baseline.Violations {
		base[v.Policy.String()+"|"+v.Source] = struct{}{}
	}
	var out []verify.Violation
	for _, v := range r.Report.Violations {
		if _, pre := base[v.Policy.String()+"|"+v.Source]; !pre {
			out = append(out, v)
		}
	}
	return out
}

// Engine answers what-if questions for one network.
type Engine struct {
	// Seed drives the emulated copy's event interleaving.
	Seed     int64
	Sources  []string
	Policies []verify.Policy
}

// Ask converges a copy from the blueprint, verifies the baseline, applies
// the changes, re-converges, and verifies again.
func (e *Engine) Ask(bp *network.Blueprint, changes ...Change) (Result, error) {
	var res Result
	n, err := bp.Instantiate(e.Seed)
	if err != nil {
		return res, fmt.Errorf("whatif: instantiate: %w", err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		return res, fmt.Errorf("whatif: baseline convergence: %w", err)
	}
	res.Baseline = e.check(n)
	mark := n.Log.Len()
	for _, change := range changes {
		if err := change(n); err != nil {
			return res, fmt.Errorf("whatif: inject: %w", err)
		}
		if err := n.Run(); err != nil {
			return res, fmt.Errorf("whatif: convergence: %w", err)
		}
	}
	res.Report = e.check(n)
	res.FIBs = n.FIBSnapshot()
	res.Events = n.Log.Len() - mark
	return res, nil
}

func (e *Engine) check(n *network.Network) verify.Report {
	return verify.NewChecker(n.LiveWalker(), e.Sources).Check(e.Policies)
}

// Diff compares the hypothetical FIBs with the live network's, returning
// "router prefix: old -> new" lines for every divergence.
func Diff(live *network.Network, hypo map[string]map[netip.Prefix]fib.Entry) []string {
	var out []string
	for _, r := range live.Routers() {
		liveFIB := r.FIB.Snapshot()
		for p, e := range hypo[r.Name] {
			if cur, ok := liveFIB[p]; !ok || cur.NextHop != e.NextHop {
				out = append(out, fmt.Sprintf("%s %s: %s -> %s", r.Name, p, nhString(liveFIB, p), hopString(e)))
			}
		}
		for p := range liveFIB {
			if _, still := hypo[r.Name][p]; !still {
				out = append(out, fmt.Sprintf("%s %s: %s -> (removed)", r.Name, p, hopString(liveFIB[p])))
			}
		}
	}
	return out
}

func nhString(fibs map[netip.Prefix]fib.Entry, p netip.Prefix) string {
	e, ok := fibs[p]
	if !ok {
		return "(none)"
	}
	return hopString(e)
}

func hopString(e fib.Entry) string {
	if !e.NextHop.IsValid() {
		return "direct"
	}
	return e.NextHop.String()
}
