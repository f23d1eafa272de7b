// Sanity coverage for the scale builders: small fat-tree and RR-hierarchy
// instances must fully converge with per-/8 attribute flavors intact, and
// the RR hierarchy's routes must share their interned attributes.

package network

import (
	"net/netip"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/fib"
	"hbverify/internal/route"
)

// scalePrefixes returns n disjoint /24s spread over the 24.0.0.0–31.0.0.0
// range (clear of the 9.x loopbacks and 10.x underlay), for up to 512K
// prefixes.
func scalePrefixes(n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := 0; i < n; i++ {
		out[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(24 + i>>16), byte(i >> 8), byte(i), 0}), 24)
	}
	return out
}

// TestScaleInternRatio: routes that share attributes share one canonical
// copy. Converging the route-reflector hierarchy over 2 K prefixes must leave
// the edge furthest from the origin with every prefix, and the live
// references must cost at least 5x fewer slice bytes than per-holder deep
// copies would. An interner that never reuses an entry reads 1x. It runs
// before TestScaleBuilders, whose routes would otherwise make the attribute
// sets canonical already.
func TestScaleInternRatio(t *testing.T) {
	prefixes := scalePrefixes(2000)
	before := route.DefaultInterner.Stats()
	n, err := BuildISPRR(1, 2, 1, prefixes)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	pe := n.Router("pe1-0")
	for _, p := range []netip.Prefix{prefixes[0], prefixes[len(prefixes)/2], prefixes[len(prefixes)-1]} {
		if _, ok := pe.FIB.Exact(p); !ok {
			t.Fatalf("pe1-0 missing %v after convergence", p)
		}
	}
	after := route.DefaultInterner.Stats()
	shared, canon := after.SharedBytes-before.SharedBytes, after.CanonicalBytes-before.CanonicalBytes
	if canon < 1 {
		canon = 1 // the attribute sets were already canonical (a repeated run)
	}
	if ratio := float64(shared) / float64(canon); ratio < 5 {
		t.Errorf("live references hold %d deep-copy bytes over %d canonical bytes (%.1fx), want >= 5x", shared, canon, ratio)
	}
	t.Logf("%d unique attribute sets, %d live refs, %d shared / %d canonical bytes",
		after.Unique, after.LiveRefs, shared, canon)
}

func TestScaleBuilders(t *testing.T) {
	n, err := BuildFatTree(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 pods * 4 + 4 cores = 20 routers; each knows the other 19 loopbacks.
	for _, r := range n.Routers() {
		count := 0
		r.FIB.Walk(func(p netip.Prefix, _ fib.Entry) bool {
			if p.Bits() == 32 {
				count++
			}
			return true
		})
		if count != 19 {
			t.Fatalf("%s has %d loopbacks, want 19", r.Name, count)
		}
	}
	pfxs := scalePrefixes(64)
	isp, err := BuildISPRR(1, 2, 1, pfxs)
	if err != nil {
		t.Fatal(err)
	}
	isp.Start()
	if err := isp.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pfxs {
		for _, rn := range []string{"pe0-0", "mid0", "top", "mid1", "pe1-0"} {
			e, ok := isp.Router(rn).FIB.Exact(p)
			if !ok {
				t.Fatalf("%s missing %v", rn, p)
			}
			_ = e
		}
	}
	// The Loc-RIB best is the last BGP route pe1-0 installed for the prefix.
	var r capture.IO
	for _, io := range isp.Log.ForRouter("pe1-0") {
		if io.Type == capture.RIBInstall && io.Proto == route.ProtoBGP && io.Prefix == netip.MustParsePrefix("24.0.0.0/24") {
			r = io
		}
	}
	if r.ID == 0 || len(r.Attrs.Communities) != 1 || r.Attrs.Communities[0] != 24 {
		t.Fatalf("flavor attrs = %+v", r.Attrs)
	}
}

// BuildISPRR lays out and builds the route-reflector hierarchy
// (LayoutISPRR) with no stub LANs attached.
func BuildISPRR(seed int64, mids, leaves int, prefixes []netip.Prefix) (*Network, error) {
	n, err := LayoutISPRR(seed, mids, leaves, prefixes)
	if err != nil {
		return nil, err
	}
	if err := n.Build(); err != nil {
		return nil, err
	}
	return n, nil
}
