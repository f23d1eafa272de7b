package trie

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func TestInsertLookupBasics(t *testing.T) {
	tr := New[string]()
	for _, c := range []struct{ p, v string }{
		{"0.0.0.0/0", "default"},
		{"10.0.0.0/8", "ten"},
		{"10.1.0.0/16", "ten-one"},
		{"192.168.0.0/16", "rfc1918"},
	} {
		if err := tr.Insert(pfx(c.p), c.v); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct{ a, want string }{
		{"10.1.2.3", "ten-one"},
		{"10.2.2.3", "ten"},
		{"192.168.9.9", "rfc1918"},
		{"8.8.8.8", "default"},
	}
	for _, c := range cases {
		v, _, ok := tr.Lookup(addr(c.a))
		if !ok || v != c.want {
			t.Fatalf("Lookup(%s) = %q,%v want %q", c.a, v, ok, c.want)
		}
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestLookupNoMatch(t *testing.T) {
	tr := New[int]()
	if err := tr.Insert(pfx("10.0.0.0/8"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tr.Lookup(addr("11.0.0.1")); ok {
		t.Fatal("unexpected match")
	}
	if _, _, ok := New[int]().Lookup(addr("1.2.3.4")); ok {
		t.Fatal("empty trie matched")
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := New[int]()
	_ = tr.Insert(pfx("10.0.0.0/8"), 1)
	_ = tr.Insert(pfx("10.0.0.0/8"), 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	v, ok := tr.Exact(pfx("10.0.0.0/8"))
	if !ok || v != 2 {
		t.Fatalf("Exact = %v,%v", v, ok)
	}
}

func TestInsertMasksHostBits(t *testing.T) {
	tr := New[int]()
	if err := tr.Insert(netip.MustParsePrefix("10.1.2.3/8"), 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Exact(pfx("10.0.0.0/8")); !ok || v != 7 {
		t.Fatal("masked insert not found at canonical prefix")
	}
}

func TestMixedFamilyRejected(t *testing.T) {
	tr := New[int]()
	if err := tr.Insert(pfx("10.0.0.0/8"), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(pfx("2001:db8::/32"), 2); err == nil {
		t.Fatal("expected family mismatch error")
	}
	if _, _, ok := tr.Lookup(addr("2001:db8::1")); ok {
		t.Fatal("v6 lookup in v4 trie matched")
	}
}

func TestIPv6Trie(t *testing.T) {
	tr := New[string]()
	_ = tr.Insert(pfx("2001:db8::/32"), "doc")
	_ = tr.Insert(pfx("2001:db8:1::/48"), "sub")
	if v, _, ok := tr.Lookup(addr("2001:db8:1::5")); !ok || v != "sub" {
		t.Fatalf("v6 LPM = %v %v", v, ok)
	}
	if v, _, ok := tr.Lookup(addr("2001:db8:2::5")); !ok || v != "doc" {
		t.Fatalf("v6 fallback = %v %v", v, ok)
	}
}

func TestDeleteAndPrune(t *testing.T) {
	tr := New[int]()
	_ = tr.Insert(pfx("10.0.0.0/8"), 1)
	_ = tr.Insert(pfx("10.1.0.0/16"), 2)
	if !tr.Delete(pfx("10.1.0.0/16")) {
		t.Fatal("delete failed")
	}
	if tr.Delete(pfx("10.1.0.0/16")) {
		t.Fatal("double delete reported true")
	}
	if v, _, ok := tr.Lookup(addr("10.1.2.3")); !ok || v != 1 {
		t.Fatalf("after delete, lookup = %v %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.Delete(pfx("10.0.0.0/8")) || tr.Len() != 0 {
		t.Fatal("final delete")
	}
	if _, _, ok := tr.Lookup(addr("10.1.2.3")); ok {
		t.Fatal("lookup after emptying matched")
	}
}

func TestDeleteKeepsCoveringEntry(t *testing.T) {
	tr := New[int]()
	_ = tr.Insert(pfx("0.0.0.0/0"), 0)
	_ = tr.Insert(pfx("10.0.0.0/8"), 1)
	tr.Delete(pfx("10.0.0.0/8"))
	if v, p, ok := tr.Lookup(addr("10.0.0.1")); !ok || v != 0 || p != pfx("0.0.0.0/0") {
		t.Fatalf("covering entry lost: %v %v %v", v, p, ok)
	}
}

func TestExactDoesNotLPM(t *testing.T) {
	tr := New[int]()
	_ = tr.Insert(pfx("10.0.0.0/8"), 1)
	if _, ok := tr.Exact(pfx("10.1.0.0/16")); ok {
		t.Fatal("Exact matched a non-inserted prefix")
	}
}

func TestLookupPrefix(t *testing.T) {
	tr := New[int]()
	_ = tr.Insert(pfx("0.0.0.0/0"), 0)
	_ = tr.Insert(pfx("10.0.0.0/8"), 1)
	if v, p, ok := tr.LookupPrefix(pfx("10.5.0.0/16")); !ok || v != 1 || p != pfx("10.0.0.0/8") {
		t.Fatalf("LookupPrefix = %v %v %v", v, p, ok)
	}
	// Exact self-match counts.
	if v, _, ok := tr.LookupPrefix(pfx("10.0.0.0/8")); !ok || v != 1 {
		t.Fatal("self match failed")
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	tr := New[int]()
	ps := []string{"128.0.0.0/1", "0.0.0.0/1", "10.0.0.0/8", "0.0.0.0/0"}
	for i, s := range ps {
		_ = tr.Insert(pfx(s), i)
	}
	var seen []netip.Prefix
	tr.Walk(func(p netip.Prefix, _ int) bool {
		seen = append(seen, p)
		return len(seen) < 3
	})
	if len(seen) != 3 {
		t.Fatalf("early stop: saw %d", len(seen))
	}
	all := tr.Prefixes()
	if len(all) != 4 {
		t.Fatalf("Prefixes len = %d", len(all))
	}
	// Sorted by address then length.
	if all[0] != pfx("0.0.0.0/0") || all[1] != pfx("0.0.0.0/1") {
		t.Fatalf("sort order wrong: %v", all)
	}
}

// A nil trie reads as empty, as a nil map does, so a FIB set can leave a
// router out.
func TestNilTrieReadsAsEmpty(t *testing.T) {
	var tr *Trie[int]
	if _, ok := tr.Exact(pfx("10.0.0.0/8")); ok || tr.Len() != 0 || len(tr.Prefixes()) != 0 ||
		len(tr.Subtree(pfx("0.0.0.0/0"))) != 0 || tr.String() != "" {
		t.Fatal("nil trie is not empty")
	}
	if _, _, ok := tr.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("nil trie matched")
	}
	tr.Walk(func(netip.Prefix, int) bool { t.Fatal("nil trie walked"); return false })
}

func TestSubtree(t *testing.T) {
	tr := New[int]()
	for i, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "11.0.0.0/8"} {
		_ = tr.Insert(pfx(s), i)
	}
	sub := tr.Subtree(pfx("10.1.0.0/16"))
	if len(sub) != 2 {
		t.Fatalf("Subtree = %v", sub)
	}
	if got := tr.Subtree(pfx("12.0.0.0/8")); len(got) != 0 {
		t.Fatalf("empty subtree = %v", got)
	}
	all := tr.Subtree(pfx("0.0.0.0/0"))
	if len(all) != 4 {
		t.Fatalf("root subtree = %v", all)
	}
}

func TestStringRendering(t *testing.T) {
	tr := New[string]()
	_ = tr.Insert(pfx("10.0.0.0/8"), "a")
	if got := tr.String(); got != "10.0.0.0/8 -> a\n" {
		t.Fatalf("String = %q", got)
	}
}

func TestDefaultRouteOnly(t *testing.T) {
	tr := New[int]()
	_ = tr.Insert(pfx("0.0.0.0/0"), 42)
	v, p, ok := tr.Lookup(addr("203.0.113.7"))
	if !ok || v != 42 || p.Bits() != 0 {
		t.Fatalf("default route lookup = %v %v %v", v, p, ok)
	}
}

// Property: trie LPM agrees with a brute-force scan over inserted prefixes.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seeds []uint32, probe uint32) bool {
		tr := New[int]()
		type entry struct {
			p netip.Prefix
			v int
		}
		var entries []entry
		for i, s := range seeds {
			a := netip.AddrFrom4([4]byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)})
			bits := int(s % 33)
			p := netip.PrefixFrom(a, bits).Masked()
			if err := tr.Insert(p, i); err != nil {
				return false
			}
			// Replacement semantics: later insert wins for same prefix.
			replaced := false
			for j := range entries {
				if entries[j].p == p {
					entries[j].v = i
					replaced = true
					break
				}
			}
			if !replaced {
				entries = append(entries, entry{p, i})
			}
		}
		pa := netip.AddrFrom4([4]byte{byte(probe >> 24), byte(probe >> 16), byte(probe >> 8), byte(probe)})
		bestBits, bestVal, found := -1, 0, false
		for _, e := range entries {
			if e.p.Contains(pa) && e.p.Bits() > bestBits {
				bestBits, bestVal, found = e.p.Bits(), e.v, true
			}
		}
		v, p, ok := tr.Lookup(pa)
		if ok != found {
			return false
		}
		if !ok {
			return true
		}
		return v == bestVal && p.Bits() == bestBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// Property: after deleting everything that was inserted, the trie is empty
// and all lookups miss.
func TestQuickInsertDeleteInverse(t *testing.T) {
	f := func(seeds []uint32) bool {
		tr := New[int]()
		uniq := map[netip.Prefix]bool{}
		for i, s := range seeds {
			a := netip.AddrFrom4([4]byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)})
			p := netip.PrefixFrom(a, int(s%33)).Masked()
			if tr.Insert(p, i) != nil {
				return false
			}
			uniq[p] = true
		}
		if tr.Len() != len(uniq) {
			return false
		}
		for p := range uniq {
			if !tr.Delete(p) {
				return false
			}
		}
		return tr.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New[int]()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		a := netip.AddrFrom4([4]byte{byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		_ = tr.Insert(netip.PrefixFrom(a, 8+rng.Intn(17)).Masked(), i)
	}
	probes := make([]netip.Addr, 1024)
	for i := range probes {
		probes[i] = netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(probes[i%len(probes)])
	}
}

// LookupPrefix returns the longest stored prefix that contains all of p
// (i.e. the forwarding entry packets to any address in p would match,
// provided no more-specific entry splits p; callers that need exactness
// should consult Subtree).
func (t *Trie[V]) LookupPrefix(p netip.Prefix) (V, netip.Prefix, bool) {
	var zero V
	p = p.Masked()
	if !t.used || !p.IsValid() || p.Addr().Is6() != t.is6 {
		return zero, netip.Prefix{}, false
	}
	best := t.descendBest(keyOf(p.Addr()), p.Bits())
	if best == nil {
		return zero, netip.Prefix{}, false
	}
	return best.val, best.pfx, true
}

// TestCloneIsIndependent: a clone holds what its source held, and writes to
// either after the clone — inserts, replacements, deletes that splice nodes —
// leave the other as it was.
func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := func() netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(256)), 0}), 8+rng.Intn(17)).Masked()
	}
	src := New[int]()
	for i := 0; i < 300; i++ {
		_ = src.Insert(random(), i)
	}
	contents := func(tr *Trie[int]) map[netip.Prefix]int {
		m := map[netip.Prefix]int{}
		tr.Walk(func(p netip.Prefix, v int) bool { m[p] = v; return true })
		return m
	}
	same := func(a, b map[netip.Prefix]int) bool {
		if len(a) != len(b) {
			return false
		}
		for p, v := range a {
			if w, ok := b[p]; !ok || w != v {
				return false
			}
		}
		return true
	}
	before := contents(src)
	c := src.Clone()
	if got := contents(c); !same(got, before) || c.Len() != src.Len() {
		t.Fatalf("clone holds %d prefixes, source %d", len(got), len(before))
	}
	for i := 0; i < 300; i++ {
		if p := random(); rng.Intn(2) == 0 {
			_ = c.Insert(p, -i)
		} else {
			c.Delete(p)
		}
	}
	if !same(contents(src), before) {
		t.Fatal("writes to the clone reached its source")
	}
	after := contents(c)
	for _, p := range src.Prefixes() {
		src.Delete(p)
	}
	if !same(contents(c), after) {
		t.Fatal("writes to the source reached its clone")
	}
	if (*Trie[int])(nil).Clone().Len() != 0 {
		t.Fatal("a nil trie's clone is not empty")
	}
}
