package eqclass

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
)

// syntheticFIBs builds per-router FIBs for nPrefixes destinations whose
// forwarding falls into nGroups policy groups across the given routers —
// the enterprise-like structure behind the paper's "<15 classes for 100K
// prefixes" observation. Group g sends every router's traffic toward the
// group's exit next hop. The generated prefixes are 10.x.y.0/24.
func syntheticFIBs(routers []string, nPrefixes, nGroups int) (*dataplane.Snapshot, []netip.Prefix) {
	if nGroups < 1 {
		nGroups = 1
	}
	fibs := &dataplane.Snapshot{}
	for _, r := range routers {
		fibs.Router(r)
	}
	prefixes := make([]netip.Prefix, 0, nPrefixes)
	for i := 0; i < nPrefixes; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		prefixes = append(prefixes, p)
		group := i % nGroups
		for ri, r := range routers {
			// Every router in group g forwards to a group-specific next
			// hop; router identity shifts the hop so signatures differ
			// between groups but not within one.
			nh := netip.AddrFrom4([4]byte{192, 168, byte(group), byte(ri + 1)})
			fibs.Router(r).Install(fib.Entry{Prefix: p, NextHop: nh})
		}
	}
	return fibs, prefixes
}

// e7Table gates E7's table to one print per process.
var e7Table sync.Once

// BenchmarkEquivalenceClasses is E7 — §6: forwarding equivalence classes
// vs prefix count, timing Compute over 10,000 prefixes. Run with
//
//	go test -run=NONE -bench=EquivalenceClasses -benchtime=1x ./internal/eqclass
func BenchmarkEquivalenceClasses(b *testing.B) {
	routers := []string{"r1", "r2", "r3", "r4", "r5"}
	sizes := []int{1000, 10000, 100000}
	groups := 12
	var rows []string
	for _, n := range sizes {
		fibs, prefixes := syntheticFIBs(routers, n, groups)
		start := time.Now()
		classes := Compute(fibs, prefixes)
		rows = append(rows, fmt.Sprintf("  %-10d %-9d %-12v", n, len(classes), time.Since(start).Round(time.Millisecond)))
	}
	fibs, prefixes := syntheticFIBs(routers, 10000, groups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(fibs, prefixes)
	}
	b.StopTimer()
	e7Table.Do(func() {
		fmt.Println("\n[E7/§6] forwarding equivalence classes (paper cites <15 classes at 100K prefixes)")
		fmt.Printf("  %-10s %-9s %-12s\n", "prefixes", "classes", "compute")
		for _, r := range rows {
			fmt.Println(r)
		}
	})
}
