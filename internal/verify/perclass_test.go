package verify

import (
	"net/netip"
	"testing"

	"hbverify/internal/dataplane"
	"hbverify/internal/eqclass"
	"hbverify/internal/network"
)

// TestPerClassVerificationCoversAllPrefixes shows the §6 optimization the
// paper leans on: verifying one representative per forwarding equivalence
// class gives the same verdict as verifying every prefix — at a fraction
// of the walks.
func TestPerClassVerificationCoversAllPrefixes(t *testing.T) {
	opt := network.DefaultPaperOpts()
	opt.AdvertiseE1, opt.AdvertiseE2 = false, false
	pn, err := network.BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	var prefixes []netip.Prefix
	for i := 0; i < 40; i++ {
		prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{51, byte(i), 0, 0}), 24))
	}
	pn.Router("e1").Cfg.BGP.Networks = prefixes[:20]
	pn.Router("e2").Cfg.BGP.Networks = prefixes[20:]
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	w := dataplane.NewWalker(pn.Topo, pn.Live())
	checker := NewChecker(w, []string{"r1", "r2", "r3"})

	full := make([]Policy, 0, len(prefixes))
	for _, p := range prefixes {
		full = append(full, Policy{Kind: Reachable, Prefix: p})
	}
	fullRep := checker.Check(full)

	classes := eqclass.Compute(pn.Live(), prefixes)
	perClass := make([]Policy, 0, len(classes))
	for _, c := range classes {
		perClass = append(perClass, Policy{Kind: Reachable, Prefix: c.Prefixes[0]})
	}
	classRep := checker.Check(perClass)

	if fullRep.OK() != classRep.OK() {
		t.Fatalf("verdicts diverge: full=%v class=%v", fullRep.Summary(), classRep.Summary())
	}
	if classRep.Checked >= fullRep.Checked/4 {
		t.Fatalf("per-class verification saved too little: %d vs %d walks", classRep.Checked, fullRep.Checked)
	}
	// And the equivalence is semantic: break one class's behaviour
	// everywhere and both detect it.
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	fullRep = checker.Check(full)
	classes = eqclass.Compute(pn.Live(), prefixes)
	perClass = perClass[:0]
	for _, c := range classes {
		perClass = append(perClass, Policy{Kind: Reachable, Prefix: c.Prefixes[0]})
	}
	classRep = checker.Check(perClass)
	if fullRep.OK() || classRep.OK() {
		t.Fatalf("uplink failure undetected: full=%v class=%v", fullRep.Summary(), classRep.Summary())
	}
}
