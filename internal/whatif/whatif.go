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
	"slices"
	"strings"

	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/route"
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
	// FIBs is the would-be forwarding state, for inspection and diffing.
	FIBs *dataplane.Snapshot
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

// seed drives every emulated copy's event interleaving.
const seed = 1

// Engine answers what-if questions for one network.
type Engine struct {
	Sources  []string
	Policies []verify.Policy
}

// Ask converges a copy from the blueprint, verifies the baseline, applies
// the changes, re-converges, and verifies again.
func (e *Engine) Ask(bp *network.Blueprint, changes ...Change) (Result, error) {
	var res Result
	n, err := bp.Instantiate(seed)
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
	res.FIBs = dataplane.Freeze(n.Live())
	res.Events = n.Log.Len() - mark
	return res, nil
}

func (e *Engine) check(n *network.Network) verify.Report {
	return verify.NewChecker(dataplane.NewWalker(n.Topo, n.Live()), e.Sources).Check(e.Policies)
}

// Diff compares the hypothetical FIBs with the live ones, both read in
// place, returning "router prefix: old -> new" lines for every divergence
// in the next-hop sets, in (router, prefix) order; an ECMP set prints as
// its members joined by "|". hypo holds every router live does, as a
// copy from the live network's blueprint does.
func Diff(live, hypo dataplane.Forwarding) []string {
	var out []string
	for _, r := range live.Routers() {
		cur, next := live.State(r), hypo.State(r)
		installs, changed := fib.Diff(cur, next)
		for _, e := range installs {
			changed = append(changed, e.Prefix)
		}
		slices.SortFunc(changed, route.ComparePrefix)
		for _, p := range changed {
			was, had := cur.Exact(p)
			now, has := next.Exact(p)
			if had && has && slices.Equal(was.HopSet(), now.HopSet()) {
				continue
			}
			out = append(out, fmt.Sprintf("%s %s: %s -> %s", r, p, hopString(was, had, "(none)"), hopString(now, has, "(removed)")))
		}
	}
	return out
}

// hopString prints an entry's next-hop set, or absent when there is no
// entry.
func hopString(e fib.Entry, ok bool, absent string) string {
	if !ok {
		return absent
	}
	hops := e.HopSet()
	if len(hops) == 0 {
		return "direct"
	}
	parts := make([]string, len(hops))
	for i, h := range hops {
		parts[i] = h.String()
	}
	return strings.Join(parts, "|")
}
