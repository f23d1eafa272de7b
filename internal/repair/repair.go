// Package repair implements §6 of the paper: acting on the root cause of a
// policy violation instead of merely blocking the offending FIB updates.
//
// Two mechanisms, in the paper's order of sophistication:
//
//   - Gate: a shadow data plane that can withhold FIB updates — the
//     baseline recourse available to a pure data-plane verifier. The gate
//     makes the §2 hazard reproducible: once updates are blocked, control
//     and data plane diverge, and a later (legitimate) withdrawal
//     blackholes traffic.
//   - Diagnose and Rollback: HBG-driven root-cause repair. A detected
//     violation is traced through the happens-before graph to its leaf
//     causes; when a leaf is a configuration change, Rollback reverts the
//     router to the previous committed version.
//
// §6's outcome predictor (E12) and §8's verify-before-install gate (E13)
// are experiments no binary runs; they live in this package's tests.
package repair

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"hbverify/internal/capture"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/network"
	"hbverify/internal/trie"
	"hbverify/internal/verify"
)

// Gate mirrors every router's FIB into a shadow data plane and can
// selectively withhold updates from it. The control plane keeps believing
// its updates were applied — exactly the inconsistency §2 warns about.
type Gate struct {
	shadow   map[string]*trie.Trie[fib.Entry]
	withheld []Withheld
	blockFn  func(router string, u fib.Update) bool
}

// Withheld is one update the gate refused to apply.
type Withheld struct {
	Router string
	Update fib.Update
}

// NewGate attaches a gate to every router of n. Attach before Start so no
// update escapes observation.
func NewGate(n *network.Network) *Gate {
	g := &Gate{shadow: map[string]*trie.Trie[fib.Entry]{}}
	for _, r := range n.Routers() {
		r := r
		g.shadow[r.Name] = trie.New[fib.Entry]()
		r.FIB.OnChange(func(u fib.Update) { g.observe(r.Name, u) })
	}
	return g
}

// SetBlock installs the blocking predicate; nil unblocks future updates.
func (g *Gate) SetBlock(fn func(router string, u fib.Update) bool) { g.blockFn = fn }

func (g *Gate) observe(router string, u fib.Update) {
	if g.blockFn != nil && g.blockFn(router, u) {
		g.withheld = append(g.withheld, Withheld{Router: router, Update: u})
		return
	}
	g.apply(router, u)
}

func (g *Gate) apply(router string, u fib.Update) {
	if u.Install {
		_ = g.shadow[router].Insert(u.Entry.Prefix, u.Entry)
	} else {
		g.shadow[router].Delete(u.Entry.Prefix)
	}
}

// View exposes the shadow data plane for walking.
func (g *Gate) View() dataplane.View {
	return dataplane.SnapshotView(g.shadow)
}

// Diagnosis reports one detect-trace-repair pass.
type Diagnosis struct {
	Report verify.Report
	// Fault is the problematic FIB update chosen for tracing (§6 starts
	// from "a problematic FIB update").
	Fault capture.IO
	// Roots are the leaf causes found in the HBG.
	Roots []capture.IO
	// RolledBack records a performed repair.
	RolledBack      bool
	RollbackRouter  string
	RollbackVersion int
}

func (d *Diagnosis) String() string {
	if d.Report.OK() {
		return "no violations"
	}
	s := fmt.Sprintf("%s; fault=%s; roots=%d", d.Report.Summary(), d.Fault, len(d.Roots))
	if d.RolledBack {
		s += fmt.Sprintf("; rolled back %s to v%d", d.RollbackRouter, d.RollbackVersion)
	}
	return s
}

// Diagnose traces the first violation of report to its root causes. The
// fault is the newest FIB update in log for the policy prefix at the
// violation's source — or, if the source has none (a blackhole caused by a
// remove, say), anywhere on its walk path: the "problematic FIB update" §6
// traverses from. graph is asked for the happens-before graph only once a
// fault is found; its leaf causes are the diagnosis's roots. No repair is
// performed.
func Diagnose(report verify.Report, log capture.View, graph func() *hbg.Graph) *Diagnosis {
	d := &Diagnosis{Report: report}
	if report.OK() {
		return d
	}
	v := report.Violations[0]
	routers := append([]string{v.Source}, v.Walk.Path...)
	prefix := v.Policy.Prefix.Masked()
	// IDs ascend along the log, so the newest match is the first from the back.
	for i := log.Len() - 1; i >= 0; i-- {
		io := log.At(i)
		if (io.Type == capture.FIBInstall || io.Type == capture.FIBRemove) &&
			io.Prefix == prefix && slices.Contains(routers, io.Router) {
			d.Fault = *io
			d.Roots = graph().RootCauses(io.ID)
			break
		}
	}
	return d
}

// Rollback executes §6's first mechanism on a diagnosis: if a root cause is
// a configuration change with a committed version, revert that router to
// the previous version ("we would therefore automatically revert it and
// report the configuration change as problematic to the operator"). The
// caller must re-run the network and re-verify afterwards.
func Rollback(n *network.Network, d *Diagnosis) error {
	for _, root := range d.Roots {
		if root.Type != capture.ConfigChange {
			continue
		}
		ref, ok := n.ConfigEventRef(root.ID)
		if !ok || ref.Version <= 1 {
			continue
		}
		if _, err := n.RollbackConfig(ref.Router, ref.Version-1, root.ID); err != nil {
			return err
		}
		d.RolledBack = true
		d.RollbackRouter = ref.Router
		d.RollbackVersion = ref.Version - 1
		return nil
	}
	return fmt.Errorf("repair: no revertible root cause among %d roots", len(d.Roots))
}

// BlackholedPrefixes walks every prefix of a snapshot view from the given
// sources and returns those that are dropped or stuck on any branch — the
// walks verify's NoBlackhole rejects, and the measurement E6 reports for
// the blocking-baseline hazard.
func BlackholedPrefixes(w *dataplane.Walker, sources []string, prefixes []netip.Prefix) []netip.Prefix {
	bad := map[netip.Prefix]bool{}
	for _, p := range prefixes {
		for _, src := range sources {
			walk := w.ForwardPrefix(src, p)
			switch walk.Outcome {
			case dataplane.Dropped, dataplane.Stuck, dataplane.PartialBlackhole:
				bad[p] = true
			}
		}
	}
	out := make([]netip.Prefix, 0, len(bad))
	for p := range bad {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
