package route

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func bgpRoute(pfx string, nh string, mod func(*Route)) Route {
	r := Route{
		Prefix:   MustPrefix(pfx),
		NextHop:  netip.MustParseAddr(nh),
		Proto:    ProtoBGP,
		PeerType: PeerEBGP,
	}
	if mod != nil {
		mod(&r)
	}
	return r
}

func TestProtocolNamesRoundTrip(t *testing.T) {
	for _, p := range []Protocol{ProtoConnected, ProtoStatic, ProtoBGP, ProtoOSPF, ProtoRIP, ProtoEIGRP} {
		if got := ParseProtocol(p.String()); got != p {
			t.Fatalf("round trip %v -> %q -> %v", p, p.String(), got)
		}
	}
	if ParseProtocol("isis") != ProtoUnknown {
		t.Fatal("unknown name must map to ProtoUnknown")
	}
	if Protocol(99).String() != "proto(99)" {
		t.Fatalf("out-of-range String = %q", Protocol(99).String())
	}
}

func TestAdminDistances(t *testing.T) {
	cases := []struct {
		p    Protocol
		ibgp bool
		want uint8
	}{
		{ProtoConnected, false, 0},
		{ProtoStatic, false, 1},
		{ProtoBGP, false, 20},
		{ProtoEIGRP, false, 90},
		{ProtoOSPF, false, 110},
		{ProtoRIP, false, 120},
		{ProtoBGP, true, 200},
		{ProtoUnknown, false, 255},
	}
	for _, c := range cases {
		if got := AdminDistance(c.p, c.ibgp); got != c.want {
			t.Errorf("AdminDistance(%v,%v) = %d, want %d", c.p, c.ibgp, got, c.want)
		}
	}
}

func TestRouteAdminDistanceUsesPeerType(t *testing.T) {
	e := bgpRoute("10.0.0.0/8", "192.0.2.1", nil)
	if e.AdminDistance() != 20 {
		t.Fatalf("eBGP AD = %d", e.AdminDistance())
	}
	i := bgpRoute("10.0.0.0/8", "192.0.2.1", func(r *Route) { r.PeerType = PeerIBGP })
	if i.AdminDistance() != 200 {
		t.Fatalf("iBGP AD = %d", i.AdminDistance())
	}
}

func TestEffectiveLocalPrefDefault(t *testing.T) {
	var a BGPAttrs
	if a.EffectiveLocalPref() != 100 {
		t.Fatalf("default LP = %d", a.EffectiveLocalPref())
	}
	a.LocalPref = 30
	if a.EffectiveLocalPref() != 30 {
		t.Fatalf("explicit LP = %d", a.EffectiveLocalPref())
	}
}

func TestAttrsCloneIsDeep(t *testing.T) {
	a := BGPAttrs{ASPath: []uint32{1, 2}, Communities: []uint32{7}}
	b := a.Clone()
	b.ASPath[0] = 99
	b.Communities[0] = 99
	if a.ASPath[0] != 1 || a.Communities[0] != 7 {
		t.Fatal("Clone aliased slices")
	}
}

func TestPathStringAndHasAS(t *testing.T) {
	a := BGPAttrs{ASPath: []uint32{65001, 65002}}
	if a.PathString() != "65001 65002" {
		t.Fatalf("PathString = %q", a.PathString())
	}
	if !a.HasAS(65002) || a.HasAS(65003) {
		t.Fatal("HasAS wrong")
	}
}

func TestCompareBGPLocalPrefWins(t *testing.T) {
	hi := bgpRoute("0.0.0.0/0", "192.0.2.1", func(r *Route) { r.Attrs.LocalPref = 200 })
	lo := bgpRoute("0.0.0.0/0", "192.0.2.2", func(r *Route) {
		r.Attrs.LocalPref = 100
		r.Attrs.ASPath = []uint32{} // shorter path must NOT beat higher LP
	})
	hi.Attrs.ASPath = []uint32{1, 2, 3}
	if CompareBGP(hi, lo, nil, Quirks{}) >= 0 {
		t.Fatal("higher local-pref must win")
	}
	if CompareBGP(lo, hi, nil, Quirks{}) <= 0 {
		t.Fatal("comparison must be antisymmetric")
	}
}

func TestCompareBGPASPathLength(t *testing.T) {
	short := bgpRoute("0.0.0.0/0", "192.0.2.1", func(r *Route) { r.Attrs.ASPath = []uint32{1} })
	long := bgpRoute("0.0.0.0/0", "192.0.2.2", func(r *Route) { r.Attrs.ASPath = []uint32{2, 3} })
	if CompareBGP(short, long, nil, Quirks{}) >= 0 {
		t.Fatal("shorter AS path must win")
	}
	if CompareBGP(short, long, nil, Quirks{IgnoreASPathLength: true}) != 0 {
		// with path length ignored they tie down to router-ID, both invalid => 0
		t.Fatal("quirk should skip AS path step")
	}
}

func TestCompareBGPOrigin(t *testing.T) {
	igp := bgpRoute("0.0.0.0/0", "192.0.2.1", func(r *Route) { r.Attrs.Origin = OriginIGP })
	inc := bgpRoute("0.0.0.0/0", "192.0.2.2", func(r *Route) { r.Attrs.Origin = OriginIncomplete })
	if CompareBGP(igp, inc, nil, Quirks{}) >= 0 {
		t.Fatal("lower origin must win")
	}
}

func TestCompareBGPMEDOnlySameNeighborAS(t *testing.T) {
	a := bgpRoute("0.0.0.0/0", "192.0.2.1", func(r *Route) {
		r.Attrs.ASPath = []uint32{100}
		r.Attrs.MED = 50
	})
	b := bgpRoute("0.0.0.0/0", "192.0.2.2", func(r *Route) {
		r.Attrs.ASPath = []uint32{200}
		r.Attrs.MED = 10
	})
	// Different neighbor AS: MED skipped; falls through to router-ID step.
	a.LearnedFrom = netip.MustParseAddr("1.1.1.1")
	b.LearnedFrom = netip.MustParseAddr("2.2.2.2")
	if CompareBGP(a, b, nil, Quirks{}) >= 0 {
		t.Fatal("with MED skipped, lower router-ID must win")
	}
	// Vendor quirk: always compare MED — b now wins despite higher router ID.
	if CompareBGP(a, b, nil, Quirks{AlwaysCompareMED: true}) <= 0 {
		t.Fatal("AlwaysCompareMED should make lower MED win")
	}
	// Same neighbor AS: MED compared canonically.
	b.Attrs.ASPath = []uint32{100}
	if CompareBGP(a, b, nil, Quirks{}) <= 0 {
		t.Fatal("same neighbor AS: lower MED must win")
	}
}

func TestCompareBGPEBGPOverIBGP(t *testing.T) {
	e := bgpRoute("0.0.0.0/0", "192.0.2.1", nil)
	i := bgpRoute("0.0.0.0/0", "192.0.2.2", func(r *Route) { r.PeerType = PeerIBGP })
	if CompareBGP(e, i, nil, Quirks{}) >= 0 {
		t.Fatal("eBGP must beat iBGP")
	}
	if CompareBGP(i, e, nil, Quirks{}) <= 0 {
		t.Fatal("antisymmetry")
	}
}

func TestCompareBGPIGPMetric(t *testing.T) {
	near := bgpRoute("0.0.0.0/0", "192.0.2.1", func(r *Route) { r.PeerType = PeerIBGP })
	far := bgpRoute("0.0.0.0/0", "192.0.2.2", func(r *Route) { r.PeerType = PeerIBGP })
	metric := func(nh netip.Addr) (uint32, bool) {
		if nh == netip.MustParseAddr("192.0.2.1") {
			return 10, true
		}
		return 100, true
	}
	if CompareBGP(near, far, metric, Quirks{}) >= 0 {
		t.Fatal("lower IGP metric must win")
	}
	// Unreachable next hop ranks worst.
	unreach := func(nh netip.Addr) (uint32, bool) {
		return 0, nh == netip.MustParseAddr("192.0.2.2")
	}
	if CompareBGP(near, far, unreach, Quirks{}) <= 0 {
		t.Fatal("unreachable next hop must lose")
	}
}

func TestCompareBGPPreferOldestQuirk(t *testing.T) {
	a := bgpRoute("0.0.0.0/0", "192.0.2.1", func(r *Route) { r.LearnedFrom = netip.MustParseAddr("9.9.9.9") })
	b := bgpRoute("0.0.0.0/0", "192.0.2.2", func(r *Route) { r.LearnedFrom = netip.MustParseAddr("1.1.1.1") })
	if CompareBGP(a, b, nil, Quirks{}) <= 0 {
		t.Fatal("canonical: lower router-ID must win")
	}
	if CompareBGP(a, b, nil, Quirks{PreferOldest: true}) != 0 {
		t.Fatal("PreferOldest must report tie so incumbent stays")
	}
}

func TestIsLocalAndString(t *testing.T) {
	local := Route{Prefix: MustPrefix("10.0.0.0/24"), Proto: ProtoConnected, OutIface: "eth0"}
	if got := local.String(); got != "10.0.0.0/24 via direct [connected ad=0 metric=0]" {
		t.Fatalf("String = %q", got)
	}
}

func TestMustHelpersPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPrefix should panic on junk")
		}
	}()
	MustPrefix("not-a-prefix")
}

func TestMustPrefixMasks(t *testing.T) {
	if got := MustPrefix("10.1.2.3/8"); got != netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), 8) {
		t.Fatalf("MustPrefix should mask host bits, got %v", got)
	}
}

// Property: CompareBGP is antisymmetric for arbitrary attribute tuples.
func TestQuickCompareAntisymmetric(t *testing.T) {
	gen := func(lp uint8, pathLen uint8, origin uint8, med uint8, ibgp bool, id uint8) Route {
		r := bgpRoute("0.0.0.0/0", "192.0.2.1", nil)
		r.Attrs.LocalPref = uint32(lp)
		r.Attrs.ASPath = make([]uint32, int(pathLen)%5)
		for i := range r.Attrs.ASPath {
			r.Attrs.ASPath[i] = 100 // same neighbor AS so MED always applies
		}
		r.Attrs.Origin = Origin(origin % 3)
		r.Attrs.MED = uint32(med)
		if ibgp {
			r.PeerType = PeerIBGP
		}
		r.LearnedFrom = netip.AddrFrom4([4]byte{id, 0, 0, 1})
		return r
	}
	f := func(lp1, pl1, o1, m1 uint8, i1 bool, id1 uint8, lp2, pl2, o2, m2 uint8, i2 bool, id2 uint8) bool {
		a := gen(lp1, pl1, o1, m1, i1, id1)
		b := gen(lp2, pl2, o2, m2, i2, id2)
		return CompareBGP(a, b, nil, Quirks{}) == -CompareBGP(b, a, nil, Quirks{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Property: a route identical to another except for strictly better
// local-pref always wins regardless of every other attribute.
func TestQuickLocalPrefDominates(t *testing.T) {
	f := func(pathLen, origin, med uint8, ibgp bool) bool {
		worse := bgpRoute("0.0.0.0/0", "192.0.2.2", nil)
		worse.Attrs = BGPAttrs{LocalPref: 100, ASPath: make([]uint32, int(pathLen)%4), Origin: Origin(origin % 3), MED: uint32(med)}
		if ibgp {
			worse.PeerType = PeerIBGP
		}
		better := bgpRoute("0.0.0.0/0", "192.0.2.3", nil)
		better.Attrs = BGPAttrs{LocalPref: 150, ASPath: []uint32{1, 2, 3, 4, 5, 6}, Origin: OriginIncomplete, MED: 4096}
		better.PeerType = PeerIBGP
		return CompareBGP(better, worse, nil, Quirks{}) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
