// Package repair implements §6 of the paper: acting on the root cause of a
// policy violation instead of merely blocking the offending FIB updates.
//
// Three mechanisms, in the paper's order of sophistication:
//
//   - Gate: a shadow data plane that can withhold FIB updates — the
//     baseline recourse available to a pure data-plane verifier. The gate
//     makes the §2 hazard reproducible: once updates are blocked, control
//     and data plane diverge, and a later (legitimate) withdrawal
//     blackholes traffic.
//   - Engine: HBG-driven root-cause repair. A detected violation is traced
//     through the happens-before graph to its leaf causes; when a leaf is
//     a configuration change, the engine rolls the router back to the
//     previous committed version.
//   - OutcomePredictor: §6's forward-looking repair — control-plane
//     computations are highly repetitive across prefixes, so the outcome
//     of a new input can be predicted from the forwarding-equivalence
//     class history before anything is installed.
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
	"hbverify/internal/verify"
)

// Gate mirrors every router's FIB into a shadow data plane and can
// selectively withhold updates from it. The control plane keeps believing
// its updates were applied — exactly the inconsistency §2 warns about.
type Gate struct {
	shadow   map[string]map[netip.Prefix]fib.Entry
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
	g := &Gate{shadow: map[string]map[netip.Prefix]fib.Entry{}}
	for _, r := range n.Routers() {
		r := r
		g.shadow[r.Name] = map[netip.Prefix]fib.Entry{}
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
	if g.shadow[router] == nil {
		g.shadow[router] = map[netip.Prefix]fib.Entry{}
	}
	if u.Install {
		g.shadow[router][u.Entry.Prefix] = u.Entry
	} else {
		delete(g.shadow[router], u.Entry.Prefix)
	}
}

// Withheld returns the updates currently blocked.
func (g *Gate) Withheld() []Withheld { return append([]Withheld(nil), g.withheld...) }

// ReleaseAll applies every withheld update in order and clears the queue.
func (g *Gate) ReleaseAll() {
	for _, w := range g.withheld {
		g.apply(w.Router, w.Update)
	}
	g.withheld = nil
}

// View exposes the shadow data plane for walking.
func (g *Gate) View() dataplane.View {
	return dataplane.SnapshotView(g.shadow)
}

// Snapshot copies the shadow state.
func (g *Gate) Snapshot() map[string]map[netip.Prefix]fib.Entry {
	out := make(map[string]map[netip.Prefix]fib.Entry, len(g.shadow))
	for r, t := range g.shadow {
		m := make(map[netip.Prefix]fib.Entry, len(t))
		for p, e := range t {
			m[p] = e
		}
		out[r] = m
	}
	return out
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

// Engine performs HBG-driven detection and repair over a network.
type Engine struct {
	Net *network.Network
	// Infer builds the happens-before graph of the log's window, handed
	// over as a view of the live log (oracle stripping is the caller's
	// choice; production uses hbr.Rules).
	Infer func(capture.View) *hbg.Graph
	// check is the owner's verdict on a policy set over the network's
	// current data plane; the engine diagnoses its violations and does not
	// verify anything itself.
	check func([]verify.Policy) verify.Report
	// Invalidate, when set, is called after a successful configuration
	// rollback; the pipeline wires it to hbr.Incremental.Invalidate. It is
	// kept for memory, not correctness: the rollback is one more
	// ConfigChange in the log and its reconvergence one more batch of FIB
	// updates, which reach every cache like any other, so dropping the
	// graph only frees it while the network reconverges.
	Invalidate func()
}

// NewEngine builds an engine that diagnoses the violations check reports.
func NewEngine(n *network.Network, infer func(capture.View) *hbg.Graph, check func([]verify.Policy) verify.Report) *Engine {
	return &Engine{Net: n, Infer: infer, check: check}
}

// Detect verifies the policies and, on violation, traces the fault to its
// root causes. No repair is performed.
func (e *Engine) Detect(policies []verify.Policy) *Diagnosis {
	d := &Diagnosis{Report: e.check(policies)}
	if d.Report.OK() {
		return d
	}
	v := d.Report.Violations[0]
	fault, ok := e.findFaultIO(v)
	if !ok {
		return d
	}
	d.Fault = fault
	g := e.Infer(e.Net.Log.View())
	d.Roots = g.RootCauses(fault.ID)
	return d
}

// findFaultIO locates the most recent FIB update at the violation's source
// router for the policy prefix — the "problematic FIB update" §6 traverses
// from. If the source has no update (e.g. a blackhole caused by a remove),
// the most recent update anywhere on the walk path is used.
func (e *Engine) findFaultIO(v verify.Violation) (capture.IO, bool) {
	routers := append([]string{v.Source}, v.Walk.Path...)
	prefix := v.Policy.Prefix.Masked()
	// IDs ascend along the log, so the newest match is the first from the back.
	log := e.Net.Log.View()
	for i := log.Len() - 1; i >= 0; i-- {
		io := log.At(i)
		if (io.Type == capture.FIBInstall || io.Type == capture.FIBRemove) &&
			io.Prefix == prefix && slices.Contains(routers, io.Router) {
			return *io, true
		}
	}
	return capture.IO{}, false
}

// Repair executes §6's first mechanism on a diagnosis: if a root cause is
// a configuration change with a committed version, revert that router to
// the previous version ("we would therefore automatically revert it and
// report the configuration change as problematic to the operator"). The
// caller must re-run the network and re-verify afterwards.
func (e *Engine) Repair(d *Diagnosis) error {
	for _, root := range d.Roots {
		if root.Type != capture.ConfigChange {
			continue
		}
		ref, ok := e.Net.ConfigEventRef(root.ID)
		if !ok || ref.Version <= 1 {
			continue
		}
		if _, err := e.Net.RollbackConfig(ref.Router, ref.Version-1, root.ID); err != nil {
			return err
		}
		d.RolledBack = true
		d.RollbackRouter = ref.Router
		d.RollbackVersion = ref.Version - 1
		if e.Invalidate != nil {
			e.Invalidate()
		}
		return nil
	}
	return fmt.Errorf("repair: no revertible root cause among %d roots", len(d.Roots))
}

// DetectAndRepair chains Detect and Repair; the returned diagnosis
// indicates whether a rollback happened.
func (e *Engine) DetectAndRepair(policies []verify.Policy) (*Diagnosis, error) {
	d := e.Detect(policies)
	if d.Report.OK() {
		return d, nil
	}
	if err := e.Repair(d); err != nil {
		return d, err
	}
	return d, nil
}

// InputSignature summarizes a control-plane input for outcome prediction:
// the same kind of input (same router, type, protocol, peer, and key
// attributes) is expected to produce the same forwarding outcome for
// prefixes in the same equivalence class (§6's repetitiveness insight).
func InputSignature(io capture.IO) string {
	return fmt.Sprintf("%s|%s|%s|%s|lp=%d|len=%d",
		io.Router, io.Type, io.Proto, io.Peer,
		io.Attrs.EffectiveLocalPref(), len(io.Attrs.ASPath))
}

// OutcomePredictor learns input-signature → forwarding-class mappings and
// predicts the outcome of unseen inputs.
type OutcomePredictor struct {
	m map[string]string
}

// NewOutcomePredictor returns an empty predictor.
func NewOutcomePredictor() *OutcomePredictor { return &OutcomePredictor{m: map[string]string{}} }

// Learn associates an observed input with the forwarding signature its
// prefix converged to.
func (o *OutcomePredictor) Learn(input capture.IO, forwardingSig string) {
	o.m[InputSignature(input)] = forwardingSig
}

// Predict forecasts the forwarding signature for a new input.
func (o *OutcomePredictor) Predict(input capture.IO) (string, bool) {
	sig, ok := o.m[InputSignature(input)]
	return sig, ok
}

// Len reports how many distinct input signatures were learned.
func (o *OutcomePredictor) Len() int { return len(o.m) }

// BlackholedPrefixes walks every prefix of a snapshot view from the given
// sources and returns those that are dropped or stuck — the measurement
// E6 reports for the blocking-baseline hazard.
func BlackholedPrefixes(w *dataplane.Walker, sources []string, prefixes []netip.Prefix) []netip.Prefix {
	bad := map[netip.Prefix]bool{}
	for _, p := range prefixes {
		for _, src := range sources {
			walk := w.ForwardPrefix(src, p)
			if walk.Outcome == dataplane.Dropped || walk.Outcome == dataplane.Stuck {
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
