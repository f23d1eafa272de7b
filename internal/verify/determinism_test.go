package verify

import (
	"reflect"
	"runtime"
	"testing"

	"hbverify/internal/config"
	"hbverify/internal/network"
)

// determinismFixture builds the paper network with a localpref fault so
// the policy set produces a non-empty, order-sensitive violation list.
func determinismFixture(t *testing.T) (*network.PaperNet, *Checker, []Policy) {
	t.Helper()
	pn := startPaper(t, network.DefaultPaperOpts())
	if _, err := pn.UpdateConfig("r2", "lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	pols := []Policy{
		{Kind: Reachable, Prefix: pn.P},
		{Kind: NoLoop, Prefix: pn.P},
		{Kind: NoBlackhole, Prefix: pn.P},
		{Kind: Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: Egress, Prefix: pn.P, Expect: "e1"},
	}
	return pn, checker(pn), pols
}

// TestCheckerWorkerCountDeterminism requires the serial and fully parallel
// checkers to report byte-identical violation lists — same members, same
// order — since violation order is part of the checker's contract (repair
// picks the first).
func TestCheckerWorkerCountDeterminism(t *testing.T) {
	pn, _, pols := determinismFixture(t)
	run := func(workers int) Report {
		c := checker(pn)
		c.Workers = workers
		return c.Check(pols)
	}
	serial := run(1)
	if serial.OK() {
		t.Fatal("fixture produced no violations; determinism unexercised")
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0) * 4} {
		if got := run(workers); !reflect.DeepEqual(serial.Violations, got.Violations) {
			t.Fatalf("workers=%d: %d violations vs serial %d, or different order",
				workers, len(got.Violations), len(serial.Violations))
		}
	}
}

// TestCheckerRepeatedRunDeterminism requires repeated Check calls on the
// same checker to return identical reports.
func TestCheckerRepeatedRunDeterminism(t *testing.T) {
	_, c, pols := determinismFixture(t)
	first := c.Check(pols)
	for i := 0; i < 5; i++ {
		if got := c.Check(pols); !reflect.DeepEqual(first.Violations, got.Violations) {
			t.Fatalf("run %d diverged: %d violations vs %d", i+2, len(got.Violations), len(first.Violations))
		}
	}
}
