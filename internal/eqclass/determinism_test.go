package eqclass

import (
	"net/netip"
	"reflect"
	"testing"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/route"
)

// TestComputeDerivedPrefixListDeterministic is the regression test for the
// prefixes==nil path: the derived prefix universe comes out of Go maps, so
// without sorting before signing, class representatives (Prefixes[0]) —
// and therefore checker sharding headers — varied run to run.
func TestComputeDerivedPrefixListDeterministic(t *testing.T) {
	fibs, prefixes := syntheticFIBs([]string{"r1", "r2", "r3"}, 400, 4)
	want := Compute(fibs, nil)
	for i := 0; i < 10; i++ {
		if got := Compute(fibs, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: Compute(fibs, nil) not deterministic", i)
		}
	}
	// Each class's representative must be its smallest member by
	// (address, length) — the canonical order, not map luck.
	for _, c := range want {
		for _, p := range c.Prefixes[1:] {
			if route.ComparePrefix(p, c.Prefixes[0]) < 0 {
				t.Fatalf("class %s representative %v is not its minimum (found %v)",
					c.Signature, c.Prefixes[0], p)
			}
		}
	}
	_ = prefixes

	// Same property on a handcrafted multi-length table: a /16 and /24
	// sharing an address must order by length.
	mixed := &dataplane.Snapshot{}
	for _, s := range []string{"10.0.0.0/24", "10.0.0.0/16", "10.0.1.0/24"} {
		mixed.Router("r1").Install(fib.Entry{Prefix: netip.MustParsePrefix(s), NextHop: netip.MustParseAddr("192.0.2.1")})
	}
	classes := Compute(mixed, nil)
	var all []netip.Prefix
	for _, c := range classes {
		all = append(all, c.Prefixes...)
	}
	if len(classes) != 1 || all[0] != netip.MustParsePrefix("10.0.0.0/16") {
		t.Fatalf("classes = %v, want single class led by 10.0.0.0/16", classes)
	}
}
