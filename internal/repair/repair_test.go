package repair

import (
	"fmt"
	"net/netip"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/eqclass"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/trie"
	"hbverify/internal/verify"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func rulesInfer(v capture.View) *hbg.Graph {
	return hbr.Rules{}.Infer(v.Stripped())
}

// build constructs the paper network with a gate attached before Start.
func build(t *testing.T) (*network.PaperNet, *Gate) {
	t.Helper()
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	gate := NewGate(pn.Network)
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	return pn, gate
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

// Snapshot copies the shadow state.
func (g *Gate) Snapshot() map[string]*trie.Trie[fib.Entry] {
	out := make(map[string]*trie.Trie[fib.Entry], len(g.shadow))
	for r, t := range g.shadow {
		c := trie.New[fib.Entry]()
		t.Walk(func(p netip.Prefix, e fib.Entry) bool {
			_ = c.Insert(p, e)
			return true
		})
		out[r] = c
	}
	return out
}

func misconfigure(t *testing.T, pn *network.PaperNet) capture.IO {
	t.Helper()
	io, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	return io
}

// liveCheck is a cold central checker over the live FIBs from the internal
// routers: the verdict under diagnosis.
func liveCheck(pn *network.PaperNet) func([]verify.Policy) verify.Report {
	return verify.NewChecker(pn.LiveWalker(), []string{"r1", "r2", "r3"}).Check
}

// detect diagnoses the live verdict over a full inference of the log.
func detect(pn *network.PaperNet, policies []verify.Policy) *Diagnosis {
	log := pn.Log.View()
	return Diagnose(liveCheck(pn)(policies), log, func() *hbg.Graph { return rulesInfer(log) })
}

// detectAndRepair rolls back what detect diagnoses, if anything.
func detectAndRepair(pn *network.PaperNet, policies []verify.Policy) (*Diagnosis, error) {
	d := detect(pn, policies)
	if d.Report.OK() {
		return d, nil
	}
	return d, Rollback(pn.Network, d)
}

func egressPolicy(pn *network.PaperNet) []verify.Policy {
	return []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
}

func TestGateMirrorsFIBs(t *testing.T) {
	pn, gate := build(t)
	snap := gate.Snapshot()
	for _, r := range []string{"r1", "r2", "r3"} {
		live, _ := pn.Router(r).FIB.Exact(pn.P)
		if shadow, _ := snap[r].Exact(pn.P); shadow.NextHop != live.NextHop {
			t.Fatalf("%s shadow %v != live %v", r, shadow.NextHop, live.NextHop)
		}
	}
}

func TestDetectTracesToConfigChange(t *testing.T) {
	pn, _ := build(t)
	cc := misconfigure(t, pn)
	d := detect(pn, egressPolicy(pn))
	if d.Report.OK() {
		t.Fatal("violation not detected")
	}
	if d.Fault.ID == 0 {
		t.Fatal("no fault FIB update identified")
	}
	found := false
	for _, r := range d.Roots {
		if r.ID == cc.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("roots %v do not include config change %d", d.Roots, cc.ID)
	}
}

func TestRepairRollsBackAndConverges(t *testing.T) {
	pn, _ := build(t)
	misconfigure(t, pn)
	d, err := detectAndRepair(pn, egressPolicy(pn))
	if err != nil {
		t.Fatal(err)
	}
	if !d.RolledBack || d.RollbackRouter != "r2" || d.RollbackVersion != 1 {
		t.Fatalf("diagnosis = %s", d)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	// Policy restored.
	after := detect(pn, egressPolicy(pn))
	if !after.Report.OK() {
		t.Fatalf("still violated after repair: %v", after.Report.Violations)
	}
	// Config history shows the automatic rollback commit.
	h := pn.Store.History("r2")
	if len(h) != 3 || h[2].Comment != "rollback to v1" {
		t.Fatalf("history = %+v", h)
	}
}

func TestDetectCleanNetworkNoFault(t *testing.T) {
	pn, _ := build(t)
	d := detect(pn, egressPolicy(pn))
	if !d.Report.OK() || d.Fault.ID != 0 || d.RolledBack {
		t.Fatalf("clean diagnosis = %s", d)
	}
}

func TestRepairFailsWithoutRevertibleRoot(t *testing.T) {
	// A violation whose root is the *initial* configuration (version 1)
	// cannot be rolled back further.
	opt := network.DefaultPaperOpts()
	opt.LPR2 = 10 // policy violated from the start
	pn, err := network.BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	_, err = detectAndRepair(pn, []verify.Policy{{Kind: verify.Egress, Prefix: network.PrefixP, Expect: "e2"}})
	if err == nil {
		t.Fatal("repair should refuse to roll back version 1")
	}
}

// TestBlockingHazard reproduces §2's warning end to end: blocking the bad
// FIB updates preserves the data plane temporarily, but after R2's uplink
// fails the control plane (which believes the updates were applied) sees
// nothing to fix, and the stale data plane blackholes P at R2.
func TestBlockingHazard(t *testing.T) {
	pn, gate := build(t)
	// The verifier-style recourse: block all further FIB updates for P.
	gate.SetBlock(func(router string, u fib.Update) bool {
		return u.Entry.Prefix == pn.P && pn.Internal(router)
	})
	misconfigure(t, pn)
	// Shadow data plane still honors the policy (that is blocking's
	// short-term appeal).
	w := dataplane.NewWalker(pn.Topo, gate.View())
	walk := w.ForwardPrefix("r3", pn.P)
	if walk.Outcome != dataplane.Delivered || walk.Egress != "e2" {
		t.Fatalf("blocked data plane should still use e2: %v", walk)
	}
	if len(gate.Withheld()) == 0 {
		t.Fatal("nothing was withheld")
	}
	// Now R2's uplink fails. The control plane withdraws, converges to
	// R1... but the data plane never hears about any of it.
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	bad := BlackholedPrefixes(w, []string{"r1", "r2", "r3"}, []netip.Prefix{pn.P})
	if len(bad) != 1 {
		t.Fatalf("expected P blackholed, got %v", bad)
	}
	// The control plane's own FIB view looks fine — the divergence is the
	// point. (r2's live FIB points to r1.)
	live, ok := pn.Router("r2").FIB.Exact(pn.P)
	if !ok || live.NextHop != addr("1.1.1.1") {
		t.Fatalf("control-plane FIB = %+v %v", live, ok)
	}
	stale, _ := gate.Snapshot()["r2"].Exact(pn.P)
	if stale.NextHop != addr("10.0.5.2") {
		t.Fatalf("shadow FIB = %+v, want stale uplink entry", stale)
	}
}

// TestRepairAvoidsHazard runs the same failure sequence with root-cause
// repair instead of blocking: no blackhole.
func TestRepairAvoidsHazard(t *testing.T) {
	pn, gate := build(t) // gate present but never blocking
	misconfigure(t, pn)
	if _, err := detectAndRepair(pn, egressPolicy(pn)); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	w := dataplane.NewWalker(pn.Topo, gate.View())
	bad := BlackholedPrefixes(w, []string{"r1", "r2", "r3"}, []netip.Prefix{pn.P})
	if len(bad) != 0 {
		t.Fatalf("repair path blackholed %v", bad)
	}
	// Traffic correctly falls back to e1.
	walk := w.ForwardPrefix("r3", pn.P)
	if walk.Outcome != dataplane.Delivered || walk.Egress != "e1" {
		t.Fatalf("fallback walk = %v", walk)
	}
}

// BlackholedPrefixes counts a walk that delivers on one ECMP branch and
// drops on the other, as verify's NoBlackhole does.
func TestBlackholedPrefixesCountsPartialBlackhole(t *testing.T) {
	pn, _ := build(t)
	snap := pn.FIBSnapshot()
	e, _ := snap["r3"].Exact(pn.P)
	e.NextHop, e.NextHops = addr("1.1.1.1"), []netip.Addr{addr("1.1.1.1"), addr("2.2.2.2")}
	_ = snap["r3"].Insert(pn.P, e)
	snap["r1"].Delete(pn.P)
	w := dataplane.NewWalker(pn.Topo, dataplane.SnapshotView(snap))
	if walk := w.ForwardPrefix("r3", pn.P); walk.Outcome != dataplane.PartialBlackhole {
		t.Fatalf("walk = %v, want a partial blackhole", walk)
	}
	if bad := BlackholedPrefixes(w, []string{"r3"}, []netip.Prefix{pn.P}); len(bad) != 1 {
		t.Fatalf("blackholed = %v, want [%v]", bad, pn.P)
	}
}

func TestGateReleaseAll(t *testing.T) {
	pn, gate := build(t)
	gate.SetBlock(func(router string, u fib.Update) bool {
		return u.Entry.Prefix == pn.P && pn.Internal(router)
	})
	misconfigure(t, pn)
	if len(gate.Withheld()) == 0 {
		t.Fatal("nothing withheld")
	}
	gate.SetBlock(nil)
	gate.ReleaseAll()
	if len(gate.Withheld()) != 0 {
		t.Fatal("queue not cleared")
	}
	// Shadow now matches the live FIBs.
	for _, r := range []string{"r1", "r2", "r3"} {
		live, _ := pn.Router(r).FIB.Exact(pn.P)
		if shadow, _ := gate.Snapshot()[r].Exact(pn.P); shadow.NextHop != live.NextHop {
			t.Fatalf("%s shadow diverged after release", r)
		}
	}
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

func TestOutcomePredictorLearnsRepetition(t *testing.T) {
	// §6: destinations are treated alike; the predictor learns per-class
	// outcomes from a handful of inputs and predicts unseen prefixes.
	pred := NewOutcomePredictor()
	mkInput := func(lp uint32, prefix string) capture.IO {
		return capture.IO{
			Router: "r2", Type: capture.RecvAdvert, Peer: "e2",
			Prefix: netip.MustParsePrefix(prefix),
			Attrs:  attrsWithLP(lp),
		}
	}
	fibsHi := map[string]*trie.Trie[fib.Entry]{"r3": trie.New[fib.Entry]()}
	_ = fibsHi["r3"].Insert(netip.MustParsePrefix("10.0.0.0/24"), fib.Entry{NextHop: addr("2.2.2.2")})
	sigHi := eqclass.Compute(fibsHi, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")})[0].Signature
	pred.Learn(mkInput(30, "10.0.0.0/24"), sigHi)
	// Same input shape, different prefix: predicted identically.
	got, ok := pred.Predict(mkInput(30, "10.0.99.0/24"))
	if !ok || got != sigHi {
		t.Fatalf("prediction = %q %v", got, ok)
	}
	// Different local-pref: unknown.
	if _, ok := pred.Predict(mkInput(10, "10.0.99.0/24")); ok {
		t.Fatal("unknown input predicted")
	}
	if pred.Len() != 1 {
		t.Fatalf("learned = %d", pred.Len())
	}
}

func attrsWithLP(lp uint32) route.BGPAttrs {
	return route.BGPAttrs{LocalPref: lp}
}

// TestUnrepairableLinkFailure captures the paper's §8 limitation: "when a
// route is withdrawn because a link goes down and the withdrawal results
// in a policy violation, blocking the withdrawal would have no good
// effects." Diagnosis must trace the violation to the hardware event and
// refuse to "repair" it (there is no configuration to revert).
func TestUnrepairableLinkFailure(t *testing.T) {
	pn, _ := build(t)
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	// The operator policy still names e2; the failure violates it.
	d := detect(pn, egressPolicy(pn))
	if d.Report.OK() {
		t.Fatal("violation not detected")
	}
	hasLinkRoot := false
	for _, r := range d.Roots {
		if r.Type == capture.LinkDown {
			hasLinkRoot = true
		}
	}
	if !hasLinkRoot {
		t.Fatalf("roots %v do not include the link-down input", d.Roots)
	}
	if err := Rollback(pn.Network, d); err == nil {
		t.Fatal("a hardware failure was rolled back")
	}
}
