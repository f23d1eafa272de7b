package trie

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"hbverify/internal/route"
)

// randPrefix4 draws from a deliberately clumped IPv4 prefix soup: a few
// base octets and weighted lengths so inserts constantly overlap, nest, and
// split each other's compressed runs.
func randPrefix4(rng *rand.Rand) netip.Prefix {
	bases := []byte{10, 10, 10, 172, 192, 203}
	a := [4]byte{
		bases[rng.Intn(len(bases))],
		byte(rng.Intn(8)),
		byte(rng.Intn(16)),
		byte(rng.Intn(256)),
	}
	lens := []int{0, 8, 9, 12, 15, 16, 17, 20, 22, 24, 24, 24, 25, 28, 30, 32}
	bits := lens[rng.Intn(len(lens))]
	return netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked()
}

func randAddr4(rng *rand.Rand) netip.Addr {
	p := randPrefix4(rng)
	a4 := p.Addr().As4()
	a4[3] ^= byte(rng.Intn(256))
	return netip.AddrFrom4(a4)
}

// checkAgree compares every observable of the compressed trie against the
// unibit reference.
func checkAgree(t *testing.T, rng *rand.Rand, got *Trie[int], want *Reference[int]) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len: compressed %d, reference %d", got.Len(), want.Len())
	}
	if gs, ws := got.String(), want.String(); gs != ws {
		t.Fatalf("String diverged:\ncompressed:\n%s\nreference:\n%s", gs, ws)
	}
	// Walk order must match exactly (lexicographic bit order).
	var gw, ww []netip.Prefix
	got.Walk(func(p netip.Prefix, _ int) bool { gw = append(gw, p); return true })
	want.Walk(func(p netip.Prefix, _ int) bool { ww = append(ww, p); return true })
	if fmt.Sprint(gw) != fmt.Sprint(ww) {
		t.Fatalf("Walk order diverged:\ncompressed: %v\nreference:  %v", gw, ww)
	}
	// Within one family that order is (address, length) order, which
	// fib.Diff and Prefixes rely on.
	if !slices.IsSortedFunc(gw, route.ComparePrefix) {
		t.Fatalf("Walk order is not prefix order: %v", gw)
	}
	for i := 0; i < 120; i++ {
		a := randAddr4(rng)
		gv, gp, gok := got.Lookup(a)
		wv, wp, wok := want.Lookup(a)
		if gok != wok || gp != wp || gv != wv {
			t.Fatalf("Lookup(%v): compressed (%v,%v,%v) reference (%v,%v,%v)", a, gv, gp, gok, wv, wp, wok)
		}
		p := randPrefix4(rng)
		gv, gp, gok = got.LookupPrefix(p)
		wv, wp, wok = want.LookupPrefix(p)
		if gok != wok || gp != wp || gv != wv {
			t.Fatalf("LookupPrefix(%v): compressed (%v,%v,%v) reference (%v,%v,%v)", p, gv, gp, gok, wv, wp, wok)
		}
		ge, geok := got.Exact(p)
		we, weok := want.Exact(p)
		if geok != weok || ge != we {
			t.Fatalf("Exact(%v): compressed (%v,%v) reference (%v,%v)", p, ge, geok, we, weok)
		}
		gsub, wsub := got.Subtree(p), want.Subtree(p)
		if fmt.Sprint(gsub) != fmt.Sprint(wsub) {
			t.Fatalf("Subtree(%v):\ncompressed: %v\nreference:  %v", p, gsub, wsub)
		}
	}
}

// Differential property test: the path-compressed trie must agree with the
// unibit reference on insert/delete/lookup/subtree over a randomized IPv4
// prefix soup, across 5 seeds.
func TestCompressedVsReferenceDifferential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			got := New[int]()
			want := NewReference[int]()
			var inserted []netip.Prefix
			for round := 0; round < 40; round++ {
				for op := 0; op < 25; op++ {
					switch {
					case len(inserted) > 0 && rng.Intn(3) == 0:
						// Delete: half the time a live prefix, half a random one.
						var p netip.Prefix
						if rng.Intn(2) == 0 {
							p = inserted[rng.Intn(len(inserted))]
						} else {
							p = randPrefix4(rng)
						}
						gdel, wdel := got.Delete(p), want.Delete(p)
						if gdel != wdel {
							t.Fatalf("Delete(%v): compressed %v, reference %v", p, gdel, wdel)
						}
					default:
						p := randPrefix4(rng)
						v := rng.Intn(1000)
						if err := got.Insert(p, v); err != nil {
							t.Fatal(err)
						}
						if err := want.Insert(p, v); err != nil {
							t.Fatal(err)
						}
						inserted = append(inserted, p)
					}
				}
				checkAgree(t, rng, got, want)
			}
			// Drain to empty and confirm agreement the whole way down.
			for _, p := range inserted {
				if g, w := got.Delete(p), want.Delete(p); g != w {
					t.Fatalf("drain Delete(%v): compressed %v, reference %v", p, g, w)
				}
			}
			checkAgree(t, rng, got, want)
			if got.Len() != 0 {
				t.Fatalf("Len = %d after drain", got.Len())
			}
		})
	}
}

// The same differential over IPv6, exercising the lo word of key128.
func TestCompressedVsReferenceDifferentialV6(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randPrefix6 := func() netip.Prefix {
		var a [16]byte
		a[0], a[1] = 0x20, 0x01
		for i := 2; i < 16; i++ {
			a[i] = byte(rng.Intn(4)) // clumped
		}
		lens := []int{16, 32, 48, 56, 64, 72, 96, 112, 128}
		return netip.PrefixFrom(netip.AddrFrom16(a), lens[rng.Intn(len(lens))]).Masked()
	}
	got := New[int]()
	want := NewReference[int]()
	var ins []netip.Prefix
	for i := 0; i < 600; i++ {
		p := randPrefix6()
		if err := got.Insert(p, i); err != nil {
			t.Fatal(err)
		}
		if err := want.Insert(p, i); err != nil {
			t.Fatal(err)
		}
		ins = append(ins, p)
	}
	if got.String() != want.String() {
		t.Fatal("v6 contents diverged after inserts")
	}
	for _, p := range ins {
		a16 := p.Addr().As16()
		a16[15] ^= 1
		addr := netip.AddrFrom16(a16)
		gv, gp, gok := got.Lookup(addr)
		wv, wp, wok := want.Lookup(addr)
		if gok != wok || gp != wp || gv != wv {
			t.Fatalf("v6 Lookup(%v) diverged", addr)
		}
	}
	for i, p := range ins {
		if g, w := got.Delete(p), want.Delete(p); g != w {
			t.Fatalf("v6 Delete(%v) diverged at %d", p, i)
		}
	}
	if got.Len() != 0 {
		t.Fatalf("v6 Len = %d after drain", got.Len())
	}
}

// Lookup on the compressed trie must not allocate.
func TestLookupAllocFree(t *testing.T) {
	tr := New[int]()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(randPrefix4(rng), i); err != nil {
			t.Fatal(err)
		}
	}
	addrs := make([]netip.Addr, 256)
	for i := range addrs {
		addrs[i] = randAddr4(rng)
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, a := range addrs {
			tr.Lookup(a)
		}
	})
	if avg != 0 {
		t.Fatalf("Lookup allocates: %.2f allocs per 256 lookups", avg)
	}
}

func BenchmarkCompressedLookup(b *testing.B) {
	benchLookup(b, func(rng *rand.Rand, n int) func(netip.Addr) {
		tr := New[int]()
		for i := 0; i < n; i++ {
			tr.Insert(randPrefix4(rng), i)
		}
		return func(a netip.Addr) { tr.Lookup(a) }
	})
}

func BenchmarkReferenceLookup(b *testing.B) {
	benchLookup(b, func(rng *rand.Rand, n int) func(netip.Addr) {
		tr := NewReference[int]()
		for i := 0; i < n; i++ {
			tr.Insert(randPrefix4(rng), i)
		}
		return func(a netip.Addr) { tr.Lookup(a) }
	})
}

func benchLookup(b *testing.B, build func(*rand.Rand, int) func(netip.Addr)) {
	rng := rand.New(rand.NewSource(1))
	lookup := build(rng, 20_000)
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = randAddr4(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(addrs[i&1023])
	}
}
