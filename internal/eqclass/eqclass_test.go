package eqclass

import (
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/network"
	"hbverify/internal/route"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func TestSyntheticGrouping(t *testing.T) {
	routers := []string{"a", "b", "c"}
	fibs, prefixes := syntheticFIBs(routers, 1000, 7)
	classes := Compute(fibs, prefixes)
	if len(classes) != 7 {
		t.Fatalf("classes = %d, want 7", len(classes))
	}
	total := 0
	for _, c := range classes {
		total += len(c.Prefixes)
	}
	if total != 1000 {
		t.Fatalf("prefixes covered = %d", total)
	}
	// Largest-first ordering.
	for i := 1; i < len(classes); i++ {
		if len(classes[i].Prefixes) > len(classes[i-1].Prefixes) {
			t.Fatal("classes not sorted by size")
		}
	}
}

func TestSyntheticECMPGrouping(t *testing.T) {
	routers := []string{"a", "b", "c"}
	fibs, prefixes := SyntheticECMPFIBs(routers, 1200, 12, 4)
	classes := Compute(fibs, prefixes)
	if len(classes) != 12 {
		t.Fatalf("classes = %d, want 12", len(classes))
	}
	// Multipath sets must be visible in the signature (rendered a|b|...),
	// otherwise two groups differing only in set membership would collapse.
	multipath := 0
	for _, c := range classes {
		for i := range c.Signature {
			if c.Signature[i] == '|' {
				multipath++
				break
			}
		}
	}
	if multipath != len(classes) {
		t.Fatalf("signatures with multipath sets = %d, want %d", multipath, len(classes))
	}

	// Withdrawing one member of one router's set moves the prefix into a
	// class of its own: set membership, not just reachability, is part of
	// the forwarding behaviour.
	victim := prefixes[0]
	e, _ := fibs.State("b").Exact(victim)
	if len(e.NextHops) < 2 {
		t.Fatalf("victim entry not multipath: %v", e)
	}
	e.NextHops = append([]netip.Addr(nil), e.NextHops[:len(e.NextHops)-1]...)
	if len(e.NextHops) == 1 {
		e.NextHops = nil
	}
	e.NextHop = e.Hop(0)
	fibs.Router("b").Install(e)
	after := Compute(fibs, prefixes)
	if len(after) != 13 {
		t.Fatalf("classes after withdraw-one-member = %d, want 13", len(after))
	}
}

func TestHeadlineScale100K(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale class computation")
	}
	routers := []string{"r1", "r2", "r3", "r4", "r5"}
	fibs, prefixes := syntheticFIBs(routers, 100_000, 12)
	classes := Compute(fibs, prefixes)
	if len(classes) != 12 {
		t.Fatalf("classes = %d, want 12 (<15 per §6)", len(classes))
	}
}

func TestComputeFromLiveNetwork(t *testing.T) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	classes := Compute(pn.Live(), nil)
	if len(classes) == 0 {
		t.Fatal("no classes")
	}
	// P forms its own class (all routers push it toward r2/e2).
	var pClass *Class
	for i := range classes {
		for _, p := range classes[i].Prefixes {
			if p == pn.P {
				pClass = &classes[i]
			}
		}
	}
	if pClass == nil {
		t.Fatal("P not classified")
	}
	for _, c := range classes {
		if len(c.Prefixes) == 0 {
			t.Fatalf("empty class %v", c)
		}
	}
}

// signature renders one prefix's forwarding behaviour: the signature of the
// one class Compute puts it in.
func signature(fibs *dataplane.Snapshot, p netip.Prefix) string {
	return Compute(fibs, []netip.Prefix{p})[0].Signature
}

// triesOf builds per-router FIBs from each router's entries.
func triesOf(entries map[string][]fib.Entry) *dataplane.Snapshot {
	out := &dataplane.Snapshot{}
	for r, es := range entries {
		s := out.Router(r)
		for _, e := range es {
			s.Install(e)
		}
	}
	return out
}

func TestSignatureDistinguishesBehaviour(t *testing.T) {
	fibs := triesOf(map[string][]fib.Entry{
		"a": {
			{Prefix: pfx("10.0.0.0/8"), NextHop: addr("1.1.1.1")},
			{Prefix: pfx("20.0.0.0/8"), NextHop: addr("2.2.2.2")},
		},
		"b": {{Prefix: pfx("0.0.0.0/0"), NextHop: addr("3.3.3.3")}},
	})
	s1 := signature(fibs, pfx("10.0.0.0/8"))
	s2 := signature(fibs, pfx("20.0.0.0/8"))
	if s1 == s2 {
		t.Fatal("different behaviour, same signature")
	}
	if s1 != "a=1.1.1.1;b=3.3.3.3" {
		t.Fatalf("signature = %q", s1)
	}
	// Unrouted prefix renders "-" everywhere it misses.
	s3 := signature(triesOf(map[string][]fib.Entry{"a": nil}), pfx("99.0.0.0/8"))
	if s3 != "a=-" {
		t.Fatalf("unrouted signature = %q", s3)
	}
}

func TestDirectEntriesInSignature(t *testing.T) {
	fibs := triesOf(map[string][]fib.Entry{"a": {{Prefix: pfx("10.0.0.0/8"), Proto: route.ProtoConnected}}})
	if got := signature(fibs, pfx("10.0.0.0/8")); got != "a=direct" {
		t.Fatalf("signature = %q", got)
	}
}

// A signature encodes what the forwarding step reads of an entry, so two
// stub LANs a router delivers directly forward alike: one class, however
// their interfaces are named.
func TestStubLANsOnOneRouterFormOneClass(t *testing.T) {
	n := network.New(1)
	if _, err := n.AddRouter("a", "9.9.9.1", 0, 0); err != nil {
		t.Fatal(err)
	}
	lans := []netip.Prefix{pfx("172.16.0.0/24"), pfx("172.16.1.0/24")}
	for i, lan := range lans {
		if _, err := n.Topo.AddStub("a", fmt.Sprintf("lan%d", i), lan.Addr().Next(), lan); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Build(); err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	classes := Compute(n.Live(), lans)
	if len(classes) != 1 || classes[0].Signature != "a=direct" {
		t.Fatalf("classes = %v, want the two LANs in one class a=direct", classes)
	}
}

// Property: the number of classes never exceeds the group count used to
// generate the FIBs, for any sizes.
func TestQuickClassCountBounded(t *testing.T) {
	f := func(nPfx, nGrp uint8) bool {
		n := int(nPfx)%500 + 1
		g := int(nGrp)%15 + 1
		fibs, prefixes := syntheticFIBs([]string{"x", "y"}, n, g)
		classes := Compute(fibs, prefixes)
		want := g
		if n < g {
			want = n
		}
		return len(classes) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeNilPrefixesUsesFIBUnion(t *testing.T) {
	fibs := triesOf(map[string][]fib.Entry{
		"a": {{Prefix: pfx("10.0.0.0/8"), NextHop: addr("1.1.1.1")}},
		"b": {{Prefix: pfx("20.0.0.0/8"), NextHop: addr("2.2.2.2")}},
	})
	classes := Compute(fibs, nil)
	total := 0
	for _, c := range classes {
		total += len(c.Prefixes)
	}
	if total != 2 {
		t.Fatalf("union covered %d prefixes", total)
	}
}

// SyntheticECMPFIBs is the multipath variant of SyntheticFIBs: every entry
// carries an equal-cost next-hop set. Group g uses a set width between 2
// and maxWidth (varying by group so widths, not just members, distinguish
// classes), and the hop addresses rotate with the group so withdrawing one
// member of a set moves its prefixes to a different class. The generated
// prefixes are 100.x.y.0/24 with a 3-byte index, so they stay distinct
// well past the 65K roll-over of SyntheticFIBs' scheme.
func SyntheticECMPFIBs(routers []string, nPrefixes, nGroups, maxWidth int) (*dataplane.Snapshot, []netip.Prefix) {
	if nGroups < 1 {
		nGroups = 1
	}
	if maxWidth < 2 {
		maxWidth = 2
	}
	fibs := &dataplane.Snapshot{}
	for _, r := range routers {
		fibs.Router(r)
	}
	prefixes := make([]netip.Prefix, 0, nPrefixes)
	for i := 0; i < nPrefixes; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4(
			[4]byte{byte(100 + i>>16), byte(i >> 8), byte(i), 0}), 24)
		prefixes = append(prefixes, p)
		group := i % nGroups
		width := 2 + group%(maxWidth-1)
		for ri, r := range routers {
			hops := make([]netip.Addr, 0, width)
			for k := 0; k < width; k++ {
				// Hops ascend within the set, so the generated sets are
				// already in canonical sorted order.
				hops = append(hops, netip.AddrFrom4(
					[4]byte{192, 168, byte(group), byte(ri*maxWidth + k + 1)}))
			}
			e := fib.Entry{Prefix: p, NextHop: hops[0]}
			if len(hops) > 1 {
				e.NextHops = hops
			}
			fibs.Router(r).Install(e)
		}
	}
	return fibs, prefixes
}
