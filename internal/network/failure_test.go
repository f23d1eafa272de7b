package network

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/route"
	"hbverify/internal/verify"
)

// walkP walks the destination prefix from src over the live FIBs.
func walkP(pn *PaperNet, src string) dataplane.Walk {
	tables := map[string]*fib.Table{}
	for _, r := range pn.Routers() {
		tables[r.Name] = r.FIB
	}
	w := dataplane.NewWalker(pn.Topo, dataplane.TableView(tables))
	return w.ForwardPrefix(src, pn.P)
}

func TestLinkFlapStormReconverges(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	for i := 0; i < 8; i++ {
		if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
			t.Fatal(err)
		}
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		if got := walkP(pn, "r3"); got.Egress != "e1" {
			t.Fatalf("flap %d down: egress %s", i, got.Egress)
		}
		if _, err := pn.SetLinkUp("r2", "e2", true); err != nil {
			t.Fatal(err)
		}
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		if got := walkP(pn, "r3"); got.Egress != "e2" {
			t.Fatalf("flap %d up: egress %s", i, got.Egress)
		}
	}
	// Every flap produced link events at both ends.
	downs := pn.Log.Filter(func(io capture.IO) bool { return io.Type == capture.LinkDown })
	ups := pn.Log.Filter(func(io capture.IO) bool { return io.Type == capture.LinkUp })
	if len(downs) != 16 || len(ups) != 16 {
		t.Fatalf("link events = %d down, %d up", len(downs), len(ups))
	}
}

func TestIsolatedRouterLosesAndRegainsRoutes(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	// Cut r3 off entirely.
	for _, peer := range []string{"r1", "r2"} {
		if _, err := pn.SetLinkUp(peer, "r3", false); err != nil {
			t.Fatal(err)
		}
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	// r3's iBGP next hops are unresolvable; its OSPF routes are gone.
	if _, ok := pn.Router("r3").FIB.Exact(pfx("2.2.2.2/32")); ok {
		t.Fatal("r3 kept OSPF route while partitioned")
	}
	// Heal.
	for _, peer := range []string{"r1", "r2"} {
		if _, err := pn.SetLinkUp(peer, "r3", true); err != nil {
			t.Fatal(err)
		}
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if got := walkP(pn, "r3"); got.Outcome != dataplane.Delivered || got.Egress != "e2" {
		t.Fatalf("after heal: %v", got)
	}
}

func TestBothUplinksFailThenOneRecovers(t *testing.T) {
	pn := startPaper(t, DefaultPaperOpts())
	if _, err := pn.SetLinkUp("r1", "e1", false); err != nil {
		t.Fatal(err)
	}
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if got := walkP(pn, "r3"); got.Outcome == dataplane.Delivered {
		t.Fatalf("traffic delivered with no uplinks: %v", got)
	}
	if _, err := pn.SetLinkUp("r1", "e1", true); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if got := walkP(pn, "r3"); got.Egress != "e1" {
		t.Fatalf("after partial recovery: %v", got)
	}
}

func TestRIPChainBreakRemovesDownstreamRoutes(t *testing.T) {
	n, lan, err := BuildChainRIP(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SetLinkUp("c1", "c2", false); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c2", "c3", "c4"} {
		if _, ok := n.Router(name).FIB.Exact(lan); ok {
			t.Fatalf("%s kept unreachable RIP route", name)
		}
	}
	// c1 (upstream of the break) still has it.
	if _, ok := n.Router("c1").FIB.Exact(lan); !ok {
		t.Fatal("c1 lost its route")
	}
}

func TestGridLinkFailureKeepsReachability(t *testing.T) {
	n, err := BuildGridOSPF(1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SetLinkUp("g0-0", "g0-1", false); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	tables := map[string]*fib.Table{}
	var sources []string
	for _, r := range n.Routers() {
		tables[r.Name] = r.FIB
		sources = append(sources, r.Name)
	}
	w := dataplane.NewWalker(n.Topo, dataplane.TableView(tables))
	// All loopbacks still reachable from everywhere.
	var policies []verify.Policy
	for _, r := range n.Routers() {
		policies = append(policies, verify.Policy{
			Kind: verify.Reachable, Prefix: netip.PrefixFrom(r.Topo.Loopback, 32),
		})
	}
	rep := verify.NewChecker(w, sources).Check(policies)
	if !rep.OK() {
		t.Fatalf("grid lost reachability: %v", rep.Violations[:min(3, len(rep.Violations))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: for any pair of local-pref values, the network converges to
// the exit with the higher preference (router-ID tiebreak: r1 on equal).
func TestQuickLocalPrefDeterminesEgress(t *testing.T) {
	f := func(lp1raw, lp2raw uint8) bool {
		lp1 := uint32(lp1raw%50) + 1
		lp2 := uint32(lp2raw%50) + 1
		opt := DefaultPaperOpts()
		opt.LPR1, opt.LPR2 = lp1, lp2
		pn, err := BuildPaper(1, opt)
		if err != nil {
			return false
		}
		pn.Start()
		if err := pn.Run(); err != nil {
			return false
		}
		got := walkP(pn, "r3")
		if got.Outcome != dataplane.Delivered {
			return false
		}
		want := "e1"
		if lp2 > lp1 {
			want = "e2"
		}
		return got.Egress == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the converged forwarding state is seed-independent for the
// canonical configuration (message timing must not matter).
func TestQuickSeedIndependentConvergence(t *testing.T) {
	baseline := ""
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		pn, err := BuildPaper(seed+1, DefaultPaperOpts())
		if err != nil {
			return false
		}
		pn.BGPSessionJitter = 3_000_000 // 3ms
		pn.Start()
		if err := pn.Run(); err != nil {
			return false
		}
		sig := ""
		for _, r := range pn.Routers() {
			if e, ok := r.FIB.Exact(pn.P); ok {
				sig += r.Name + "=" + e.NextHop.String() + ";"
			}
		}
		if baseline == "" {
			baseline = sig
		}
		return sig == baseline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Fatal(err)
	}
}

// Failure injection on the capture side: a router whose clock jumps wildly
// must not break convergence (timestamps are observational only).
func TestWildClockSkewHarmless(t *testing.T) {
	opt := DefaultPaperOpts()
	opt.ClockSkew = 3600 * 1e9 // one hour
	opt.ClockJitter = 1e9      // one second
	pn := startPaper(t, opt)
	if got := walkP(pn, "r3"); got.Egress != "e2" {
		t.Fatalf("convergence disturbed by clocks: %v", got)
	}
}

func TestConfigChangeDuringConvergence(t *testing.T) {
	// Inject the misconfiguration while the initial convergence is still
	// in flight: the network must still reach the LP-10 steady state.
	pn, err := BuildPaper(1, DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Sched.RunUntil(pn.Sched.Now().Add(10 * time.Millisecond)); err != nil { // mid-convergence
		t.Fatal(err)
	}
	if _, err := pn.UpdateConfig("r2", "early lp 10", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	if got := walkP(pn, "r3"); got.Egress != "e1" {
		t.Fatalf("steady state after racing config change: %v", got)
	}
}

func TestEventBudgetGuardsRunaway(t *testing.T) {
	pn, err := BuildPaper(1, DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Sched.MaxEvents = 10 // absurdly small
	pn.Start()
	if err := pn.Run(); err == nil {
		t.Fatal("expected event-budget error")
	}
}

// TestSessionsAreFIFO: however much jitter each message draws, every BGP
// session and every link delivers in the order it sent — the ground-truth
// send of each receive comes after the previous receive's on its channel —
// while messages on different channels still overtake one another.
func TestSessionsAreFIFO(t *testing.T) {
	type channel struct {
		from, to string
		proto    route.Protocol
	}
	received, overtaken := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		pn, err := BuildPaper(seed, DefaultPaperOpts())
		if err != nil {
			t.Fatal(err)
		}
		pn.BGPSessionJitter = 200 * time.Millisecond
		for _, l := range pn.Topo.Links() {
			l.Jitter = 200 * time.Millisecond
		}
		pn.Start()
		if err := pn.Run(); err != nil {
			t.Fatal(err)
		}
		for lp := uint32(10); lp <= 50; lp += 10 {
			if _, err := pn.UpdateConfig("r2", "uplink local-pref", func(c *config.Router) {
				c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
			}); err != nil {
				t.Fatal(err)
			}
			if err := pn.Run(); err != nil {
				t.Fatal(err)
			}
		}
		last := map[channel]uint64{}  // the latest send received on each channel
		newest := map[string]uint64{} // and across all of a receiver's channels
		for _, io := range pn.Log.Snapshot() {
			if io.Type != capture.RecvAdvert && io.Type != capture.RecvWithdraw || len(io.Causes) == 0 {
				continue
			}
			send, ch := io.Causes[0], channel{io.Peer, io.Router, io.Proto}
			if send < last[ch] {
				t.Fatalf("seed %d: %v delivered send %d after send %d on its channel", seed, io, send, last[ch])
			}
			if send < newest[io.Router] {
				overtaken++
			}
			last[ch], newest[io.Router] = send, max(newest[io.Router], send)
			received++
		}
	}
	if received < 100 || overtaken == 0 {
		t.Fatalf("%d receives, %d overtaken across channels: the jitter reorders nothing", received, overtaken)
	}
}
