package fib

import (
	"math/rand"
	"net/netip"
	"testing"

	"hbverify/internal/route"
)

// refFIB is the naive reference model the property test compares the
// trie-backed Table against: candidates in a plain map, arbitration by a
// linear scan, LPM by checking every prefix. Deliberately simple enough to
// be obviously correct.
type refFIB struct {
	cands map[netip.Prefix]map[route.Protocol]route.Route
}

func newRefFIB() *refFIB {
	return &refFIB{cands: map[netip.Prefix]map[route.Protocol]route.Route{}}
}

func (f *refFIB) offer(r route.Route) {
	p := r.Prefix.Masked()
	if f.cands[p] == nil {
		f.cands[p] = map[route.Protocol]route.Route{}
	}
	f.cands[p][r.Proto] = r
}

func (f *refFIB) withdraw(proto route.Protocol, p netip.Prefix) {
	p = p.Masked()
	delete(f.cands[p], proto)
	if len(f.cands[p]) == 0 {
		delete(f.cands, p)
	}
}

// best re-arbitrates a prefix exactly like Table.reselectLocked: lowest
// admin distance, then lowest metric, first offered wins ties (the map
// iteration hides offer order, so the scan breaks ties by protocol number
// — matched below by only ever offering one route per (prefix, proto) with
// distinct AD/metric pairs).
func (f *refFIB) best(p netip.Prefix) (route.Route, bool) {
	var out route.Route
	found := false
	for _, r := range f.cands[p] {
		if !found || r.AdminDistance() < out.AdminDistance() ||
			(r.AdminDistance() == out.AdminDistance() && r.Metric < out.Metric) {
			out, found = r, true
		}
	}
	return out, found
}

func (f *refFIB) lookup(dst netip.Addr) (route.Route, bool) {
	var out route.Route
	bits := -1
	for p := range f.cands {
		if p.Contains(dst) && p.Bits() > bits {
			if r, ok := f.best(p); ok {
				out, bits = r, p.Bits()
			}
		}
	}
	return out, bits >= 0
}

// TestMultipathTrieMatchesReference drives a seeded random sequence of
// next-hop-set installs, full withdrawals, and withdraw-one-member
// transitions through a Table and the naive reference, asserting after
// every operation that longest-prefix answers — including the full
// next-hop set — are identical for a panel of probe addresses.
func TestMultipathTrieMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv()
		ref := newRefFIB()

		// A prefix pool with nesting (/16 over /20 over /24) so LPM, not
		// just exact match, is exercised; a hop pool wide enough that sets
		// overlap but rarely coincide.
		var pool []netip.Prefix
		for i := 0; i < 8; i++ {
			pool = append(pool,
				netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
				netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), byte(16 * (i % 3)), 0}), 20),
				netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), byte(i), 0}), 24))
		}
		hop := func(k int) netip.Addr {
			return netip.AddrFrom4([4]byte{192, 0, 2, byte(k + 1)})
		}
		protos := []route.Protocol{route.ProtoStatic, route.ProtoOSPF, route.ProtoRIP}

		var probes []netip.Addr
		for _, p := range pool {
			probes = append(probes, p.Addr().Next())
		}
		probes = append(probes, netip.MustParseAddr("10.3.48.77"), netip.MustParseAddr("172.16.0.1"))

		check := func(op string) {
			t.Helper()
			for _, dst := range probes {
				got, okG := e.tbl.Lookup(dst)
				want, okW := ref.lookup(dst)
				if okG != okW {
					t.Fatalf("seed %d after %s: Lookup(%v) ok=%v, reference ok=%v", seed, op, dst, okG, okW)
				}
				if !okG {
					continue
				}
				if got.Prefix != want.Prefix.Masked() || got.Proto != want.Proto {
					t.Fatalf("seed %d after %s: Lookup(%v) = %v (%s), reference %v (%s)",
						seed, op, dst, got.Prefix, got.Proto, want.Prefix, want.Proto)
				}
				gh, wh := got.HopSet(), want.HopSet()
				if len(gh) != len(wh) {
					t.Fatalf("seed %d after %s: Lookup(%v) hop set %v, reference %v", seed, op, dst, gh, wh)
				}
				for i := range gh {
					if gh[i] != wh[i] {
						t.Fatalf("seed %d after %s: Lookup(%v) hop set %v, reference %v", seed, op, dst, gh, wh)
					}
				}
			}
		}

		for op := 0; op < 400; op++ {
			p := pool[rng.Intn(len(pool))]
			proto := protos[rng.Intn(len(protos))]
			switch k := rng.Intn(10); {
			case k < 6: // install a fresh random next-hop set
				width := 1 + rng.Intn(4)
				var hops []netip.Addr
				for _, ix := range rng.Perm(8)[:width] {
					hops = append(hops, hop(ix))
				}
				r := route.Route{Prefix: p, Proto: proto, Metric: uint32(rng.Intn(4))}.
					WithNextHops(hops...)
				e.tbl.Offer(r)
				ref.offer(r)
				check("install")
			case k < 8: // withdraw-one-member of the installed winner's set
				cur, ok := e.tbl.Exact(p)
				if !ok || cur.HopCount() < 2 {
					continue
				}
				keep := append([]netip.Addr(nil), cur.NextHops...)
				ix := rng.Intn(len(keep))
				keep = append(keep[:ix], keep[ix+1:]...)
				winner, _ := ref.best(p)
				r := route.Route{Prefix: p, Proto: cur.Proto, Metric: winner.Metric}.
					WithNextHops(keep...)
				e.tbl.Offer(r)
				ref.offer(r)
				check("narrow")
			default: // full withdrawal of one protocol's candidate
				e.tbl.Withdraw(proto, p)
				ref.withdraw(proto, p)
				check("withdraw")
			}
		}
	}
}
