package ciscolog

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/netsim"
	"hbverify/internal/network"
)

// e5Table gates E5's table to one print per process.
var e5Table sync.Once

// BenchmarkFig5Feasibility is E5 — Fig. 5 / §7: feasibility timings through
// the IOS log pipeline, timing one emit → parse → infer pass. Run with
//
//	go test -run=NONE -bench=Fig5 -benchtime=1x ./internal/ciscolog
func BenchmarkFig5Feasibility(b *testing.B) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		b.Fatal(err)
	}
	pn.SoftReconfigDelay = 25 * time.Second
	pn.Start()
	if err := pn.Run(); err != nil {
		b.Fatal(err)
	}
	mark := pn.Log.Len()
	if _, err := pn.UpdateConfig("r1", "neighbor localpref 200", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 200
	}); err != nil {
		b.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		b.Fatal(err)
	}
	interesting := pn.Log.Snapshot()[mark:]
	resolve := func(a netip.Addr) string { return pn.Topo.OwnerOf(a) }

	var parsed []capture.IO
	var g *hbg.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		parsed, err = roundTrip(interesting, resolve)
		if err != nil {
			b.Fatal(err)
		}
		g = hbr.Rules{}.Infer(parsed)
	}
	b.StopTimer()

	pick := func(router string, typ capture.Type, after netsim.VirtualTime) capture.IO {
		for _, io := range parsed {
			if io.Router == router && io.Type == typ && io.Time >= after {
				return io
			}
		}
		return capture.IO{}
	}
	cc := pick("r1", capture.ConfigChange, 0)
	soft := pick("r1", capture.SoftReconfig, cc.Time)
	fibIO := pick("r1", capture.FIBInstall, soft.Time)
	send := pick("r1", capture.SendAdvert, soft.Time)
	r3recv := pick("r3", capture.RecvAdvert, soft.Time)
	r3fib := pick("r3", capture.FIBInstall, r3recv.Time)
	e5Table.Do(func() {
		fmt.Println("\n[E5/Fig5] feasibility timings (paper-measured vs ours), via IOS log round trip")
		fmt.Printf("  %-38s %-10s %-10s\n", "edge", "paper", "measured")
		fmt.Printf("  %-38s %-10s %-10v\n", "TTY config -> soft reconfiguration", "25s", soft.Time.Sub(cc.Time))
		fmt.Printf("  %-38s %-10s %-10v\n", "soft reconfig -> FIB install (r1)", "4ms", fibIO.Time.Sub(soft.Time))
		fmt.Printf("  %-38s %-10s %-10v\n", "FIB install -> advertisement (r1)", "4ms", send.Time.Sub(fibIO.Time))
		fmt.Printf("  %-38s %-10s %-10v\n", "advert propagation (r1 -> r3)", "8ms", r3recv.Time.Sub(send.Time))
		fmt.Printf("  %-38s %-10s %-10v\n", "recv -> FIB install (r3)", "<4ms", r3fib.Time.Sub(r3recv.Time))
		for _, r := range g.RootCauses(r3fib.ID) {
			fmt.Println("  root cause from parsed logs:", r)
		}
	})
}
