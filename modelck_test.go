// The control-plane *model* verifier baseline the paper argues against
// relying on exclusively (§1–§2), used by E11's BenchmarkModelCoverageGap:
// it predicts the converged forwarding state from topology and configuration
// using a canonical model of BGP path selection. Like the tools it
// caricatures, it "models all protocols and path selection criteria used in
// this network, but ignores vendor-specific implementation details" — so
// when a router runs a vendor quirk profile, the model's prediction can
// diverge from what the real (simulated) control plane computes. Route
// redistribution and vendor quirks are deliberately outside the model; that
// is the point of the baseline.
package hbverify

import (
	"net/netip"
	"sort"
	"testing"

	"hbverify/internal/network"
	"hbverify/internal/route"
)

// modelPrediction is the model's converged-state forecast: for each internal
// router and prefix, the next hop it should install.
type modelPrediction map[string]map[netip.Prefix]netip.Addr

// modelOrigin is one externally learned route entering the AS.
type modelOrigin struct {
	border    string // internal border router name
	peerAddr  netip.Addr
	localPref uint32
	asPathLen int
	borderID  netip.Addr
}

// modelPredict computes the canonical-model forecast for the given prefixes
// over the internal routers of n. It assumes: each external neighbor
// advertising a prefix injects it at its internal border router with the
// session's configured local-pref; all internal routers learn all border
// routers' bests over an iBGP full mesh; ties break canonically
// (local-pref, path length, eBGP-over-iBGP, router ID). IGP distances are
// approximated as uniform — another modeling simplification real tools
// make configurable but defaults often hide.
func modelPredict(n *network.Network, internal func(string) bool, prefixes []netip.Prefix) modelPrediction {
	// Discover external origins: external routers that originate each
	// prefix, and the internal border sessions facing them.
	pred := modelPrediction{}
	var origins []modelOrigin
	for _, r := range n.Routers() {
		if internal(r.Name) || r.Cfg.BGP == nil {
			continue
		}
		for _, nb := range r.Cfg.BGP.Neighbors {
			borderName := n.Topo.OwnerOf(nb.Addr)
			if borderName == "" || !internal(borderName) {
				continue
			}
			border := n.Router(borderName)
			if border == nil || border.Cfg.BGP == nil {
				continue
			}
			// The border's session back toward this external router gives
			// the ingress local-pref and the uplink next hop.
			var lp uint32
			var uplink netip.Addr
			for _, bn := range border.Cfg.BGP.Neighbors {
				if n.Topo.OwnerOf(bn.Addr) == r.Name {
					lp = bn.LocalPref
					uplink = bn.Addr
				}
			}
			if !uplink.IsValid() {
				continue
			}
			for range r.Cfg.BGP.Networks {
				origins = append(origins, modelOrigin{
					border: borderName, peerAddr: uplink, localPref: lp,
					asPathLen: 1, borderID: border.Topo.Loopback,
				})
			}
		}
	}
	// Per prefix: which externals originate it.
	for _, p := range prefixes {
		var cands []modelOrigin
		for _, r := range n.Routers() {
			if internal(r.Name) || r.Cfg.BGP == nil {
				continue
			}
			for _, netw := range r.Cfg.BGP.Networks {
				if netw.Masked() == p.Masked() {
					for _, o := range origins {
						if modelExternalOf(n, o) == r.Name {
							cands = append(cands, o)
						}
					}
				}
			}
		}
		cands = modelDedupe(cands)
		if len(cands) == 0 {
			continue
		}
		for _, r := range n.Routers() {
			if !internal(r.Name) {
				continue
			}
			if pred[r.Name] == nil {
				pred[r.Name] = map[netip.Prefix]netip.Addr{}
			}
			best := modelSelectCanonicalFor(r.Name, cands)
			if r.Name == best.border {
				pred[r.Name][p.Masked()] = best.peerAddr // exits via its own uplink
			} else {
				pred[r.Name][p.Masked()] = best.borderID // via the chosen border router
			}
		}
	}
	return pred
}

// modelExternalOf reports the external router an origin's border session
// faces.
func modelExternalOf(n *network.Network, o modelOrigin) string {
	border := n.Router(o.border)
	if border == nil || border.Cfg.BGP == nil {
		return ""
	}
	for _, bn := range border.Cfg.BGP.Neighbors {
		if bn.LocalPref == o.localPref && bn.RemoteAS != border.Cfg.BGP.ASN {
			return n.Topo.OwnerOf(bn.Addr)
		}
	}
	return ""
}

func modelDedupe(in []modelOrigin) []modelOrigin {
	seen := map[string]bool{}
	var out []modelOrigin
	for _, o := range in {
		k := o.border + o.peerAddr.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, o)
		}
	}
	return out
}

// modelSelectCanonicalFor applies the canonical (quirk-free) per-router
// decision: highest local-pref, shortest path, eBGP-over-iBGP (a border
// router prefers its own uplink on ties), lowest border router ID. MED is
// deliberately *not* compared across neighboring ASes — exactly the detail
// a vendor's always-compare-med quirk violates.
func modelSelectCanonicalFor(router string, cands []modelOrigin) modelOrigin {
	c := append([]modelOrigin(nil), cands...)
	sort.Slice(c, func(i, j int) bool {
		a, b := c[i], c[j]
		alp, blp := modelEffLP(a.localPref), modelEffLP(b.localPref)
		if alp != blp {
			return alp > blp
		}
		if a.asPathLen != b.asPathLen {
			return a.asPathLen < b.asPathLen
		}
		aOwn, bOwn := a.border == router, b.border == router
		if aOwn != bOwn {
			return aOwn
		}
		return a.borderID.Compare(b.borderID) < 0
	})
	return c[0]
}

func modelEffLP(lp uint32) uint32 {
	if lp == 0 {
		return 100
	}
	return lp
}

// modelMismatch is one (router, prefix) pair where the model was wrong.
type modelMismatch struct {
	Router    string
	Prefix    netip.Prefix
	Predicted netip.Addr
	Actual    netip.Addr
}

// modelDiff compares predictions with live FIB state.
func modelDiff(n *network.Network, pred modelPrediction) []modelMismatch {
	var out []modelMismatch
	names := make([]string, 0, len(pred))
	for name := range pred {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := n.Router(name)
		if r == nil {
			continue
		}
		prefixes := make([]netip.Prefix, 0, len(pred[name]))
		for p := range pred[name] {
			prefixes = append(prefixes, p)
		}
		sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].String() < prefixes[j].String() })
		for _, p := range prefixes {
			want := pred[name][p]
			e, ok := r.FIB.Exact(p)
			actual := netip.Addr{}
			if ok {
				actual = e.NextHop
			}
			if actual != want {
				out = append(out, modelMismatch{Router: name, Prefix: p, Predicted: want, Actual: actual})
			}
		}
	}
	return out
}

// modelPaper builds and converges the paper network under opt.
func modelPaper(t *testing.T, opt network.PaperOpts) *network.PaperNet {
	t.Helper()
	pn, err := network.BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	return pn
}

func TestModelMatchesCanonicalNetwork(t *testing.T) {
	pn := modelPaper(t, network.DefaultPaperOpts())
	pred := modelPredict(pn.Network, pn.Internal, []netip.Prefix{pn.P})
	if pred["r3"][pn.P] != netip.MustParseAddr("2.2.2.2") {
		t.Fatalf("model predicts r3 -> %v, want r2", pred["r3"][pn.P])
	}
	if pred["r2"][pn.P] != netip.MustParseAddr("10.0.5.2") {
		t.Fatalf("model predicts r2 -> %v, want own uplink", pred["r2"][pn.P])
	}
	if mismatches := modelDiff(pn.Network, pred); len(mismatches) != 0 {
		t.Fatalf("canonical network should match the model: %v", mismatches)
	}
}

func TestModelPredictsLowerPrefFallback(t *testing.T) {
	opt := network.DefaultPaperOpts()
	opt.LPR2 = 10 // below R1's 20: model should predict exit via R1
	pn := modelPaper(t, opt)
	pred := modelPredict(pn.Network, pn.Internal, []netip.Prefix{pn.P})
	if pred["r3"][pn.P] != netip.MustParseAddr("1.1.1.1") {
		t.Fatalf("model predicts r3 -> %v, want r1", pred["r3"][pn.P])
	}
	if len(modelDiff(pn.Network, pred)) != 0 {
		t.Fatal("model should still match (no quirks in play)")
	}
}

// TestVendorQuirkBreaksModel runs quirky routers on a local-pref tie: the
// model must still predict a next hop for every internal router (E11 counts
// where those predictions miss).
func TestVendorQuirkBreaksModel(t *testing.T) {
	opt := network.DefaultPaperOpts()
	opt.LPR1, opt.LPR2 = 20, 20
	opt.Quirks = map[string]route.Quirks{
		"r1": route.VendorA, "r2": route.VendorA, "r3": route.VendorA,
	}
	pn := modelPaper(t, opt)
	pred := modelPredict(pn.Network, pn.Internal, []netip.Prefix{pn.P})
	for _, r := range []string{"r1", "r2", "r3"} {
		if _, ok := pred[r][pn.P]; !ok {
			t.Fatalf("no prediction for %s", r)
		}
	}
}

func TestModelMissesRouteWithdawal(t *testing.T) {
	// The model predicts from configuration only; it cannot see that E2's
	// uplink failed at runtime. This is the coverage gap in the other
	// direction: stale predictions.
	pn := modelPaper(t, network.DefaultPaperOpts())
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if len(modelDiff(pn.Network, modelPredict(pn.Network, pn.Internal, []netip.Prefix{pn.P}))) == 0 {
		t.Fatal("model should mispredict after a runtime event it cannot see")
	}
}
