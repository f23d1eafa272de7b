package dist

import (
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/verify"
)

// TestFailedRoundKeepsNotes: a round whose sync fails puts back the notes
// it took, as a union with any noted since, so the next round reads those
// routers again. r2's node is closed, so the delta for r2 cannot be sent.
func TestFailedRoundKeepsNotes(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	gone := pfx("192.0.2.0/28")
	f.Note("r2", fib.Update{Entry: fib.Entry{Prefix: gone}})
	f.NoteLinks("r1")
	if err := f.Node("r2").Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Verify(verify.NewChecker(nil, []string{"r1"}), []verify.Policy{{Kind: verify.NoLoop, Prefix: pn.P}}); err == nil {
		t.Fatal("a round with r2's node closed succeeded")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, r1 := f.noted["r1"][netip.Prefix{}]
	_, r2 := f.noted["r2"][gone]
	if !r1 || !r2 || len(f.noted) != 2 || len(f.noted["r1"]) != 1 || len(f.noted["r2"]) != 1 {
		t.Fatalf("notes after the failed round: %v", f.noted)
	}
}

// TestLinkFlipBackShipsUnchangedInterfaces: a link that flips and flips
// back before a round ships both ends' interfaces, unchanged. The fleet is
// told that a link flipped, not what the nodes hold, so it cannot see that
// the flips cancelled; the nodes re-apply what they have.
func TestLinkFlipBackShipsUnchangedInterfaces(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	pn.OnLinkChange(func(a, b string, _ bool) {
		f.NoteLinks(a)
		f.NoteLinks(b)
	})
	for _, up := range []bool{false, true} {
		if _, err := pn.SetLinkUp("r2", "e2", up); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	deltas := f.deltas(f.noted)
	f.mu.Unlock()
	if len(deltas) != 2 || deltas[0].Router != "e2" || deltas[1].Router != "r2" {
		t.Fatalf("deltas = %+v, want one each for e2 and r2", deltas)
	}
	for _, d := range deltas {
		nd := f.Node(d.Router)
		nd.viewMu.RLock()
		same := slices.Equal(d.Ifaces, nd.View.Ifaces())
		nd.viewMu.RUnlock()
		if !d.HasIface || !same || len(d.Installs) != 0 || len(d.Removes) != 0 {
			t.Fatalf("%s's delta %+v, want its node's interfaces and no entries", d.Router, d)
		}
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Verify(verify.NewChecker(nil, []string{"r1", "r2", "r3"}), []verify.Policy{{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"}})
	if err != nil || !stats.Report.OK() {
		t.Fatalf("round after the flips: %v, %+v", err, stats.Report)
	}
}

// TestFleetMemoryBudget holds a fleet to its nodes' views: on the
// converged k=6 fat tree, the heap a fleet retains after one round is at
// most 1.25 times one set of the routers' views. A fleet that keeps
// its own copy of every view holds two sets and breaks the budget.
func TestFleetMemoryBudget(t *testing.T) {
	const budget = 1.25 // retained heap over one set of views
	n, err := network.BuildFatTree(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	liveHeap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := liveHeap()
	views := viewsOf(n)
	oneSet := liveHeap() - before
	entries := 0
	for _, v := range views {
		v.Walk(func(netip.Prefix, fib.Entry) bool {
			entries++
			return true
		})
	}
	views = nil

	before = liveHeap()
	f := startFleet(t, n)
	routers := routerNames(n)
	if _, err := f.Verify(verify.NewChecker(nil, routers), []verify.Policy{{Kind: verify.Reachable, Prefix: pfx("9.1.0.1/32")}}); err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(f)
	if ratio := float64(retained) / float64(oneSet); ratio > budget {
		t.Errorf("the fleet retains %d B, %.2f times one set of views (%d B over %d entries); budget %.2f", retained, ratio, oneSet, entries, budget)
	}
	t.Logf("%d routers, %d entries: one set of views %d B, the fleet after a round %d B", len(routers), entries, oneSet, retained)
}
