package hbverify

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbr"
	"hbverify/internal/netsim"
	"hbverify/internal/network"
	"hbverify/internal/snapshot"
	"hbverify/internal/verify"
)

func startPaper(t *testing.T) (*network.PaperNet, *Pipeline) {
	t.Helper()
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	return pn, NewPipeline(pn.Network, []string{"r1", "r2", "r3"})
}

func TestPipelineVerifyHealthy(t *testing.T) {
	pn, p := startPaper(t)
	rep := p.Verify([]verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}})
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if p.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestPipelineEndToEndRepair(t *testing.T) {
	pn, p := startPaper(t)
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	policies := []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	d, err := p.DetectAndRepair(policies)
	if err != nil {
		t.Fatal(err)
	}
	if !d.RolledBack {
		t.Fatalf("diagnosis = %s", d)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if rep := p.Verify(policies); !rep.OK() {
		t.Fatalf("not repaired: %v", rep.Violations)
	}
}

func TestPipelineAccuracy(t *testing.T) {
	_, p := startPaper(t)
	m := p.Accuracy()
	// Full-log inference (convergence included) is imperfect by design —
	// §4.2 expects to trade precision and recall; the Fig. 2 slice alone
	// scores >0.9 on both (see internal/hbr tests).
	if m.Precision < 0.8 || m.Recall < 0.85 {
		t.Fatalf("rules accuracy too low: %+v", m)
	}
}

func TestPipelineVerifySnapshot(t *testing.T) {
	pn, p := startPaper(t)
	rep, res := p.VerifySnapshot(snapshot.Cut{}, []verify.Policy{
		{Kind: verify.NoLoop, Prefix: pn.P},
	})
	if !res.Consistent || !rep.OK() {
		t.Fatalf("rep=%v res=%+v", rep.Summary(), res)
	}
}

// fig1cPipeline drives Fig. 1a -> 1b — only e1 originates P, then e2 does
// too — under a pipeline, and returns the Fig. 1c cut: every log complete
// except r2's, which stops just before its FIB switch to the e2 uplink.
func fig1cPipeline(t *testing.T) (*network.PaperNet, *Pipeline, snapshot.Cut) {
	t.Helper()
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE2 = false
	pn, err := network.BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(pn.Network, []string{"r1", "r2", "r3"})
	if _, err := pn.UpdateConfig("e2", "originate P", func(c *config.Router) {
		c.BGP.Networks = []netip.Prefix{network.PrefixP}
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	uplink := netip.MustParseAddr("10.0.5.2")
	for _, io := range pn.Log.Snapshot() {
		if io.Router == "r2" && io.Type == capture.FIBInstall && io.Prefix == pn.P && io.NextHop == uplink {
			return pn, p, snapshot.Cut{"r2": io.Time - 1}
		}
	}
	t.Fatal("r2 never switched to its uplink")
	return nil, nil, nil
}

// TestVerifySnapshotCountsWaits: the Fig. 1c cut is open — r1 and r3 hold
// advertisements r2's collected log has not sent — so VerifySnapshot must
// wait for r2 at least once before its verdict, report how often in the
// result and add the same number to the snapshot.waits counter.
func TestVerifySnapshotCountsWaits(t *testing.T) {
	pn, p, cut := fig1cPipeline(t)
	rep, res := p.VerifySnapshot(cut, []verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}})
	if !res.Consistent || !rep.OK() {
		t.Fatalf("Fig. 1c verdict: %s, %+v", rep.Summary(), res)
	}
	if res.Waits < 1 {
		t.Fatalf("the Fig. 1c cut was verified after %d waits, want at least one", res.Waits)
	}
	if got := p.Metrics.Counter("snapshot.waits").Value(); got != int64(res.Waits) {
		t.Fatalf("snapshot.waits = %d, the result reports %d", got, res.Waits)
	}
}

// TestVerifySnapshotInfersNothing: a snapshot verdict is message accounting
// over the log, so VerifySnapshot runs no inference of any kind — not on a
// cold cache, and not on a warm one it could have derived the cut's graph
// from.
func TestVerifySnapshotInfersNothing(t *testing.T) {
	kinds := []string{"infer.full", "infer.incremental", "infer.derived"}
	for _, warm := range []bool{false, true} {
		pn, p, cut := fig1cPipeline(t)
		if warm {
			p.Graph()
		}
		before := make([]int64, len(kinds))
		for i, k := range kinds {
			before[i] = p.Metrics.Timer(k).Count()
		}
		if _, res := p.VerifySnapshot(cut, []verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}}); !res.Consistent || res.Waits == 0 {
			t.Fatalf("warm=%v: %+v", warm, res)
		}
		for i, k := range kinds {
			if got := p.Metrics.Timer(k).Count(); got != before[i] {
				t.Errorf("warm=%v: VerifySnapshot ran %s %d times", warm, k, got-before[i])
			}
		}
	}
}

// TestPipelineCompactLog exercises the always-on bounded-memory path at
// the Pipeline layer: the strategy's fold-then-evict must leave Graph and
// RootCauses answers for retained events identical to a full inference
// pruned to the same floor.
func TestPipelineCompactLog(t *testing.T) {
	pn, p := startPaper(t)
	rules := hbr.Rules{Window: 50 * time.Millisecond,
		ConfigWindow: 100 * time.Millisecond}
	inc := hbr.NewIncremental(rules, p.Metrics)
	inc.SkewSlack = 10 * time.Millisecond
	p.Strategy = inc

	// The paper scenario converges within ~30ms of virtual time — nothing
	// would age past any sound retention floor. Drip config churn far past
	// that burst so Compact has history to evict.
	last := pn.Log.Snapshot()[pn.Log.Len()-1].Time
	for i := 0; i < 40; i++ {
		last += netsim.VirtualTime(50 * time.Millisecond)
		pn.Log.AppendBatch([]capture.IO{{Router: "r1", Type: capture.ConfigChange,
			Detail: fmt.Sprintf("drip %d", i), Time: last, TrueTime: last}})
	}
	total := pn.Log.Len()
	all := capture.StripOracle(pn.Log.Snapshot())

	_, evicted := p.Strategy.Compact(pn.Log)
	if evicted == 0 {
		t.Fatal("Compact evicted nothing")
	}
	if got := pn.Log.Len(); got != total-evicted {
		t.Fatalf("window holds %d events after evicting %d of %d", got, evicted, total)
	}

	got := p.Graph()
	want := rules.Infer(all)
	want.PruneBefore(got.PrunedBelow())
	if g, w := got.NodeCount(), want.NodeCount(); g != w {
		t.Fatalf("compacted graph has %d nodes, pruned full inference has %d", g, w)
	}
	if g, w := got.EdgeCount(), want.EdgeCount(); g != w {
		t.Fatalf("compacted graph has %d edges, pruned full inference has %d", g, w)
	}
	for _, io := range pn.Log.Snapshot() {
		if g, w := got.RootCauses(io.ID), want.RootCauses(io.ID); !reflect.DeepEqual(g, w) {
			t.Fatalf("RootCauses(%d) diverge after compaction: %v vs %v", io.ID, g, w)
		}
	}

	// A second compaction with nothing newly old is a no-op.
	if _, n := p.Strategy.Compact(pn.Log); n != 0 {
		t.Fatalf("repeat Compact evicted %d events", n)
	}
}

func TestPipelineRootCause(t *testing.T) {
	pn, p := startPaper(t)
	var fibIO capture.IO
	for _, io := range pn.Log.ForRouter("r3") {
		if io.Type == capture.FIBInstall && io.Prefix == pn.P {
			fibIO = io
		}
	}
	roots := p.Graph().RootCauses(fibIO.ID)
	if len(roots) == 0 {
		t.Fatal("no roots")
	}
	for _, r := range roots {
		if r.Type != capture.ConfigChange {
			t.Fatalf("unexpected root: %v", r)
		}
	}
}
