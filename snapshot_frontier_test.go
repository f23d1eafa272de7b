package hbverify

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/hbr"
	"hbverify/internal/snapshot"
	"hbverify/internal/verify"
)

// coldSnapshot is VerifySnapshot with nothing kept: the cut closed over a
// fresh pairing of the whole view and the FIBs replayed from its first event.
func coldSnapshot(p *Pipeline, cut snapshot.Cut, policies []verify.Policy) ([]verify.Result, snapshot.Result) {
	view := p.Net.Log.View()
	final, res := snapshot.ConsistentCut(view, cut, hbr.Pair(view), p.External)
	w := dataplane.NewWalker(p.Net.Topo, dataplane.SnapshotView(snapshot.ReplayFIBs(view, final)))
	return verify.NewChecker(w, p.Sources).Check(policies).Results(), res
}

// TestVerifySnapshotOnCompactedLog: compaction evicts FIB events, and a
// snapshot replayed from what is left is not the network's. VerifySnapshot
// must say so — inconsistent, the first retained ID named, nothing verified —
// rather than verify partial FIBs, whether compaction left some events or
// none, and whether or not its frontier had replayed the log before.
func TestVerifySnapshotOnCompactedLog(t *testing.T) {
	for _, tc := range []struct {
		name string
		warm bool
		keep int // events compaction retains
	}{
		{"cold, all evicted", false, 0},
		{"cold, some retained", false, 40},
		{"warm, all evicted", true, 0},
		{"warm, some retained", true, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pn, p := startPaper(t)
			policies := []verify.Policy{{Kind: verify.Reachable, Prefix: pn.P}, {Kind: verify.NoBlackhole, Prefix: pn.P}}
			if live := p.Verify(policies); !live.OK() {
				t.Fatalf("the live network is not clean: %s", live.Summary())
			}
			if tc.warm {
				if rep, res := p.VerifySnapshot(snapshot.Cut{}, policies); !res.Consistent || !rep.OK() || res.EvictedBelow != 0 {
					t.Fatalf("before compaction: %s, %+v", rep.Summary(), res)
				}
			}
			floor := pn.Log.FirstID() + uint64(pn.Log.Len()-tc.keep)
			pn.Log.CompactBefore(floor)
			rep, res := p.VerifySnapshot(snapshot.Cut{}, policies)
			if res.Consistent || res.EvictedBelow != floor {
				t.Errorf("verdict %+v on a log compacted below %d, want inconsistent with EvictedBelow %d", res, floor, floor)
			}
			if rep.Checked != 0 || len(rep.Violations) != 0 {
				t.Errorf("verified a snapshot with evicted FIB events: %s", rep.Summary())
			}
		})
	}
}

// TestVerifySnapshotConcurrentCuts shares one pipeline's snapshot frontier
// among goroutines: between appends to the log, each verifies every cut of a
// set — ones that lag a router at a recent FIB install and ones that reach
// behind what the others replayed — in its own order, and every answer must
// be the one a cold, sequential computation gives for that cut.
func TestVerifySnapshotConcurrentCuts(t *testing.T) {
	pn, p := startPaper(t)
	p.External = func(r string) bool { return !pn.Internal(r) }
	policies := []verify.Policy{
		{Kind: verify.Reachable, Prefix: pn.P},
		{Kind: verify.NoLoop, Prefix: pn.P},
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
	}
	const workers = 4
	for round, lp := range []uint32{10, 200, 5} {
		mark := pn.Log.Len()
		if _, err := pn.UpdateConfig("r2", fmt.Sprintf("set uplink local-pref %d", lp), func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
		}); err != nil {
			t.Fatal(err)
		}
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		// Every router lagged at each of its new FIB installs, and the whole log.
		cuts := []snapshot.Cut{{}}
		for _, io := range pn.Log.Snapshot()[mark:] {
			if io.Type == capture.FIBInstall {
				cuts = append(cuts, snapshot.Cut{io.Router: io.Time - 1}, snapshot.Cut{io.Router: io.Time})
			}
		}
		type answer struct {
			results []verify.Result
			res     snapshot.Result
		}
		want := make([]answer, len(cuts))
		for i, c := range cuts {
			want[i].results, want[i].res = coldSnapshot(p, c, policies)
		}
		got := make([][]answer, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			got[w] = make([]answer, len(cuts))
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range cuts {
					// A different order per worker: rotated, every other one reversed.
					i := (k + w*len(cuts)/workers) % len(cuts)
					if w%2 == 1 {
						i = len(cuts) - 1 - i
					}
					rep, res := p.VerifySnapshot(cuts[i], policies)
					got[w][i] = answer{rep.Results(), res}
				}
			}(w)
		}
		wg.Wait()
		for w := range got {
			for i, a := range got[w] {
				if !reflect.DeepEqual(a.res, want[i].res) || !reflect.DeepEqual(a.results, want[i].results) {
					t.Fatalf("round %d, worker %d, cut %v: verdict %+v with %d results, sequential cold %+v with %d",
						round, w, cuts[i], a.res, len(a.results), want[i].res, len(want[i].results))
				}
			}
		}
	}
}

// TestVerifySnapshotKeepsOpenReceipts: a receive whose send was never logged
// leaves every cut open. The first verdict replays past it, so the later
// ones read it only from the receives the frontier keeps open; churn that
// follows may pair it with a send logged after it. Every answer must be the
// cold one.
func TestVerifySnapshotKeepsOpenReceipts(t *testing.T) {
	pn, p := startPaper(t)
	p.External = func(r string) bool { return !pn.Internal(r) }
	policies := []verify.Policy{{Kind: verify.Reachable, Prefix: pn.P}, {Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}}
	log := pn.Log.Snapshot()
	var lost capture.IO
	for _, io := range log {
		if io.Type == capture.RecvAdvert && pn.Internal(io.Peer) {
			lost = io
		}
	}
	if lost.ID == 0 {
		t.Fatal("the converged log holds no receive from inside the domain")
	}
	lost.ID, lost.Time = 0, log[len(log)-1].Time+1
	pn.Log.AppendBatch([]capture.IO{lost})
	check := func(step string, cuts ...snapshot.Cut) {
		t.Helper()
		for _, c := range cuts {
			results, res := p.VerifySnapshot(c, policies)
			wantResults, want := coldSnapshot(p, c, policies)
			if !reflect.DeepEqual(res, want) || !reflect.DeepEqual(results.Results(), wantResults) {
				t.Fatalf("%s, cut %v: verdict %+v, sequential cold %+v", step, c, res, want)
			}
			if res.Consistent {
				t.Fatalf("%s, cut %v: consistent with a receive whose send was never logged", step, c)
			}
		}
	}
	check("after the lost line", snapshot.Cut{}, snapshot.Cut{})
	mark := pn.Log.Len()
	for _, lp := range []uint32{10, 200} {
		if _, err := pn.UpdateConfig("r2", fmt.Sprintf("set uplink local-pref %d", lp), func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
		}); err != nil {
			t.Fatal(err)
		}
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
	}
	cuts := []snapshot.Cut{{}}
	for _, io := range pn.Log.Snapshot()[mark:] {
		if io.Type == capture.FIBInstall {
			cuts = append(cuts, snapshot.Cut{io.Router: io.Time})
		}
	}
	check("after churn", cuts...)
	check("again", snapshot.Cut{})
}
