package snapshot

import (
	"reflect"
	"slices"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/dataplane"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/netsim"
	"hbverify/internal/verify"
)

// TestSweepAllCutsNeverPhantoms is the soundness sweep behind experiment
// E2: for *every* single-router cut at *every* event boundary during the
// Fig. 1a -> 1b transition, the HBG-gated snapshotter must never report a
// phantom loop — it either judges the cut consistent (and verification
// passes) or waits until it is.
func TestSweepAllCutsNeverPhantoms(t *testing.T) {
	pn, ios := fig1Transition(t)
	routers := []string{"r1", "r2", "r3", "e1", "e2"}
	policy := []verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}}
	cuts := 0
	for _, router := range routers {
		var times []netsim.VirtualTime
		for _, io := range ios {
			if io.Router == router {
				times = append(times, io.Time)
			}
		}
		for _, tm := range times {
			cut := Cut{router: tm - 1}
			collected, _, res := ConsistentCollect(ios, cut, rulesInfer, nil)
			if !res.Consistent {
				// The collector ran out of log without consistency — only
				// acceptable if the missing sends are truly absent, which
				// cannot happen with the full log available.
				t.Fatalf("cut %s@%v never became consistent: %+v", router, tm, res)
			}
			fibs := BuildFIBs(collected)
			w := dataplane.NewWalker(pn.Topo, dataplane.SnapshotView(fibs))
			rep := verify.NewChecker(w, []string{"r1", "r2", "r3"}).Check(policy)
			if !rep.OK() {
				t.Fatalf("phantom loop at cut %s@%v: %v", router, tm, rep.Violations)
			}
			cuts++
		}
	}
	if cuts < 50 {
		t.Fatalf("sweep covered only %d cuts", cuts)
	}
}

// TestTwoRouterCuts staggers two routers at once (the realistic collector
// case) and confirms the gate still converges to a verified snapshot.
func TestTwoRouterCuts(t *testing.T) {
	pn, ios := fig1Transition(t)
	policy := []verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}}
	var r2times, r3times []netsim.VirtualTime
	for _, io := range ios {
		switch io.Router {
		case "r2":
			r2times = append(r2times, io.Time)
		case "r3":
			r3times = append(r3times, io.Time)
		}
	}
	step := len(r2times)/4 + 1
	for i := 0; i < len(r2times); i += step {
		for j := 0; j < len(r3times); j += step {
			cut := Cut{"r2": r2times[i] - 1, "r3": r3times[j] - 1}
			collected, _, res := ConsistentCollect(ios, cut, rulesInfer, nil)
			if !res.Consistent {
				t.Fatalf("cut (%d,%d) never consistent: %+v", i, j, res)
			}
			fibs := BuildFIBs(collected)
			w := dataplane.NewWalker(pn.Topo, dataplane.SnapshotView(fibs))
			if rep := verify.NewChecker(w, []string{"r1", "r2", "r3"}).Check(policy); !rep.OK() {
				t.Fatalf("phantom at cut (%d,%d): %v", i, j, rep.Violations)
			}
		}
	}
}

// TestSweepNaiveBaselinePhantomRate quantifies how often the naive
// snapshotter hallucinates across the same sweep (it must be nonzero, or
// E2 has no contrast).
func TestSweepNaiveBaselinePhantomRate(t *testing.T) {
	pn, ios := fig1Transition(t)
	policy := []verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}}
	phantoms := 0
	total := 0
	for _, io := range ios {
		if io.Router != "r2" {
			continue
		}
		cut := Cut{"r2": io.Time - 1}
		fibs := BuildFIBs(Collect(ios, cut))
		w := dataplane.NewWalker(pn.Topo, dataplane.SnapshotView(fibs))
		rep := verify.NewChecker(w, []string{"r1", "r2", "r3"}).Check(policy)
		total++
		if !rep.OK() {
			phantoms++
		}
	}
	if phantoms == 0 {
		t.Fatalf("naive snapshotter produced no phantoms across %d cuts", total)
	}
}

// checkPerFIB is the §5 condition as it was first written: one provenance
// query per FIB update, every received advertisement in it examined (and
// re-examined under later updates). Check examines every collected receive,
// so what this finds missing it finds missing too.
func checkPerFIB(g *hbg.Graph, external func(string) bool) map[uint64]bool {
	missing := map[uint64]bool{}
	for _, io := range g.Nodes() {
		if io.Type != capture.FIBInstall && io.Type != capture.FIBRemove {
			continue
		}
		for _, anc := range g.Provenance(io.ID) {
			if !accounted(&anc, external) {
				continue
			}
			hasSend := false
			for _, pid := range g.Parents(anc.ID) {
				if p, ok := g.Node(pid); ok && (p.Type == capture.SendAdvert || p.Type == capture.SendWithdraw) && p.Router != anc.Router {
					hasSend = true
				}
			}
			if !hasSend {
				missing[anc.ID] = true
			}
		}
	}
	return missing
}

func ids(ios []capture.IO) []uint64 {
	out := make([]uint64, len(ios))
	for i := range ios {
		out[i] = ios[i].ID
	}
	return out
}

// TestCheckMatchesSendTable runs the sweep's cuts again — every
// single-router cut at every event boundary — closing each both ways:
// ConsistentCollect with a graph per cut, judged by Check, and ConsistentCut
// by message accounting over the log's channel pairs. Both must reach the same
// final cut and the same verdict, Missing in the same order, WaitFor and
// waits, with and without an external predicate. Every graph Check judges
// must also find missing what the per-update formulation finds.
func TestCheckMatchesSendTable(t *testing.T) {
	_, ios := fig1Transition(t)
	sendOf := hbr.Pair(capture.ViewOf(ios))
	externals := map[string]func(string) bool{
		"nil":         nil,
		"e1 external": func(r string) bool { return r == "e1" },
	}
	graphs, inconsistent, wider, waits := 0, 0, 0, 0
	for name, external := range externals {
		infer := func(collected []capture.IO) *hbg.Graph {
			g := rulesInfer(collected)
			res, old := Check(g, external), checkPerFIB(g, external)
			for id := range old {
				if !slices.Contains(ids(res.Missing), id) {
					t.Fatalf("external=%s: receive %d is missing from FIB ancestry but not to Check: %+v", name, id, res)
				}
			}
			graphs++
			if !res.Consistent {
				inconsistent++
			}
			if len(res.Missing) > len(old) {
				wider++
			}
			return g
		}
		for _, router := range []string{"r1", "r2", "r3", "e1", "e2"} {
			for _, io := range ios {
				if io.Router != router {
					continue
				}
				cut := Cut{router: io.Time - 1}
				_, gCut, g := ConsistentCollect(ios, cut, infer, external)
				tCut, tab := ConsistentCut(capture.ViewOf(ios), cut, sendOf, external)
				if !reflect.DeepEqual(gCut, tCut) || g.Consistent != tab.Consistent || !reflect.DeepEqual(g.WaitFor, tab.WaitFor) ||
					!slices.Equal(ids(g.Missing), ids(tab.Missing)) || g.Waits != tab.Waits {
					t.Fatalf("external=%s, cut %v:\ngraph %v %+v\ntable %v %+v", name, cut, gCut, g, tCut, tab)
				}
				waits += g.Waits
			}
		}
	}
	if graphs < 100 || inconsistent == 0 || wider == 0 || waits == 0 {
		t.Fatalf("compared %d graphs, %d inconsistent, %d wider than FIB ancestry, %d waits: the sweep no longer exercises the rule",
			graphs, inconsistent, wider, waits)
	}
}
