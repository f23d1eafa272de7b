package route

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"hbverify/internal/fault"
)

func randAttrs(rng *rand.Rand) BGPAttrs {
	a := BGPAttrs{
		LocalPref: uint32(rng.Intn(4) * 50),
		MED:       uint32(rng.Intn(3) * 10),
		Origin:    Origin(rng.Intn(3)),
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		a.ASPath = append(a.ASPath, uint32(100+rng.Intn(5)))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		a.Communities = append(a.Communities, uint32(rng.Intn(8)))
	}
	if rng.Intn(3) == 0 {
		a.OriginatorID = netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + rng.Intn(4))})
		for i, n := 0, rng.Intn(2); i < n; i++ {
			a.ClusterList = append(a.ClusterList, netip.AddrFrom4([4]byte{10, 1, 0, byte(1 + rng.Intn(3))}))
		}
	}
	return a
}

func TestInternerCanonicalSharing(t *testing.T) {
	in := NewInterner()
	a := BGPAttrs{ASPath: []uint32{100, 200}, Communities: []uint32{7}}
	r1 := in.Acquire(a)
	r2 := in.Acquire(a.Clone())
	if !r1.Valid() || !r2.Valid() {
		t.Fatal("invalid handles")
	}
	if &r1.Attrs().ASPath[0] != &r2.Attrs().ASPath[0] {
		t.Fatal("equal attrs did not intern to one canonical slice")
	}
	st := in.Stats()
	if st.Unique != 1 || st.LiveRefs != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SharedBytes != 2*st.CanonicalBytes {
		t.Fatalf("byte accounting: shared %d canonical %d", st.SharedBytes, st.CanonicalBytes)
	}
	r1.Release()
	if st := in.Stats(); st.Unique != 1 || st.LiveRefs != 1 {
		t.Fatalf("after one release: %+v", st)
	}
	r2.Release()
	if st := in.Stats(); st.Unique != 0 || st.LiveRefs != 0 || st.CanonicalBytes != 0 || st.SharedBytes != 0 {
		t.Fatalf("after final release: %+v", st)
	}
}

func TestInternerDistinctAttrsStayDistinct(t *testing.T) {
	in := NewInterner()
	rng := rand.New(rand.NewSource(3))
	seen := map[string]AttrRef{}
	for i := 0; i < 5000; i++ {
		a := randAttrs(rng)
		key := fmt.Sprintf("%v", a)
		ref := in.Acquire(a)
		if prev, ok := seen[key]; ok {
			if prev.e != ref.e {
				t.Fatalf("equal attrs %s got distinct entries", key)
			}
			ref.Release()
			continue
		}
		for k2, r2 := range seen {
			if r2.e == ref.e {
				t.Fatalf("distinct attrs aliased:\n%s\n%s", key, k2)
			}
		}
		seen[key] = ref
	}
	// Mutating a scalar on a struct copy must not disturb the canonical set.
	for _, r := range seen {
		cp := r.Attrs()
		cp.LocalPref += 1000
		if cp.LocalPref == r.Attrs().LocalPref {
			t.Fatal("scalar mutation leaked into canonical entry")
		}
		r.Release()
	}
	if st := in.Stats(); st.Unique != 0 {
		t.Fatalf("entries leaked: %+v", st)
	}
}

func TestInternAliasBugCollapses(t *testing.T) {
	in := NewInterner()
	a := BGPAttrs{ASPath: []uint32{100}}
	b := BGPAttrs{ASPath: []uint32{200}}
	r1, r2 := in.Acquire(a), in.Acquire(b)
	if r1.e == r2.e {
		t.Fatal("distinct paths aliased without the bug")
	}
	r1.Release()
	r2.Release()
	defer fault.Inject(fault.InternAlias)()
	r1, r2 = in.Acquire(a), in.Acquire(b)
	if r1.e != r2.e {
		t.Fatal("intern-alias did not collapse distinct first-AS paths")
	}
	r1.Release()
	r2.Release()
}

// Property: best-path selection and the full CompareBGP order over a
// randomized announcement set are identical whether routes carry deep
// copies or interned canonical attributes.
func TestInternedVsDeepCopyCompareOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := NewInterner()
		igp := func(nh netip.Addr) (uint32, bool) {
			b := nh.As4()
			if b[3]%3 == 0 {
				return 0, false
			}
			return uint32(b[3] % 7), true
		}
		var deep, interned []Route
		var refs []AttrRef
		for i := 0; i < 64; i++ {
			attrs := randAttrs(rng)
			nh := netip.AddrFrom4([4]byte{10, 9, byte(rng.Intn(3)), byte(1 + rng.Intn(6))})
			pt := PeerEBGP
			if rng.Intn(2) == 0 {
				pt = PeerIBGP
			}
			lf := netip.AddrFrom4([4]byte{10, 255, 0, byte(1 + rng.Intn(8))})
			base := Route{Proto: ProtoBGP, NextHop: nh, PeerType: pt, LearnedFrom: lf}
			d := base
			d.Attrs = attrs.Clone()
			deep = append(deep, d)
			ref := in.Acquire(attrs)
			refs = append(refs, ref)
			r := base
			r.Attrs = ref.Attrs()
			interned = append(interned, r)
		}
		for _, q := range []Quirks{VendorCanonical, {AlwaysCompareMED: true}, {PreferOldest: true}, {IgnoreASPathLength: true}} {
			// Full pairwise Compare agreement.
			for i := range deep {
				for j := range deep {
					cd := CompareBGP(deep[i], deep[j], igp, q)
					ci := CompareBGP(interned[i], interned[j], igp, q)
					if (cd < 0) != (ci < 0) || (cd > 0) != (ci > 0) {
						t.Fatalf("seed %d quirks %+v: Compare(%d,%d) deep=%d interned=%d", seed, q, i, j, cd, ci)
					}
				}
			}
			// Best-path selection agreement (first-wins on ties, like the
			// speakers' decision loop).
			bestOf := func(rs []Route) int {
				best := 0
				for i := 1; i < len(rs); i++ {
					if CompareBGP(rs[i], rs[best], igp, q) < 0 {
						best = i
					}
				}
				return best
			}
			if bd, bi := bestOf(deep), bestOf(interned); bd != bi {
				t.Fatalf("seed %d quirks %+v: best deep=%d interned=%d", seed, q, bd, bi)
			}
			// Sort order agreement.
			od := make([]int, len(deep))
			oi := make([]int, len(deep))
			for i := range od {
				od[i], oi[i] = i, i
			}
			sort.SliceStable(od, func(x, y int) bool { return CompareBGP(deep[od[x]], deep[od[y]], igp, q) < 0 })
			sort.SliceStable(oi, func(x, y int) bool { return CompareBGP(interned[oi[x]], interned[oi[y]], igp, q) < 0 })
			for i := range od {
				if od[i] != oi[i] {
					t.Fatalf("seed %d quirks %+v: sort order diverged at %d", seed, q, i)
				}
			}
		}
		for _, r := range refs {
			r.Release()
		}
		if st := in.Stats(); st.Unique != 0 || st.LiveRefs != 0 {
			t.Fatalf("seed %d: leaked entries %+v", seed, st)
		}
	}
}

func TestAttrsEqualFastPath(t *testing.T) {
	a := BGPAttrs{ASPath: []uint32{1, 2, 3}, Communities: []uint32{9}}
	if !AttrsEqual(a, a) {
		t.Fatal("identity not equal")
	}
	b := a.Clone()
	if !AttrsEqual(a, b) {
		t.Fatal("deep copy not equal")
	}
	b.ASPath[2] = 4
	if AttrsEqual(a, b) {
		t.Fatal("modified copy compared equal")
	}
}
