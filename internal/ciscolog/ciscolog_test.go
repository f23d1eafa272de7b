package ciscolog

import (
	"bytes"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbr"
	"hbverify/internal/netsim"
	"hbverify/internal/network"
	"hbverify/internal/route"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestTimestampRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, 25 * time.Second, 4 * time.Millisecond, 3*time.Hour + 7*time.Millisecond} {
		vt := netsim.Duration(d)
		s := string(appendTimestamp(nil, vt))
		got, err := parseTimestampBytes([]byte(s))
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got != vt {
			t.Fatalf("round trip %v -> %q -> %v", vt, s, got)
		}
	}
	// Sub-millisecond precision truncates.
	vt := netsim.VirtualTime(1_500_000) // 1.5ms
	got, err := parseTimestampBytes(appendTimestamp(nil, vt))
	if err != nil {
		t.Fatal(err)
	}
	if got != netsim.VirtualTime(1_000_000) {
		t.Fatalf("truncation = %v", got)
	}
	if _, err := parseTimestampBytes([]byte("garbage")); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestEmitStyles(t *testing.T) {
	cases := []struct {
		io   capture.IO
		want string
	}{
		{
			capture.IO{Type: capture.ConfigChange, Detail: "set lp 10", Time: netsim.Duration(25 * time.Second)},
			"*Nov  1 10:00:25.000: %SYS-5-CONFIG_I: Configured from console by admin on vty0 (set lp 10)",
		},
		{
			capture.IO{Type: capture.SoftReconfig, Proto: route.ProtoBGP},
			"*Nov  1 10:00:00.000: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started",
		},
		{
			capture.IO{Type: capture.RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx("203.0.113.0/24"),
				PeerAddr: addr("10.0.5.2"), NextHop: addr("10.0.5.2"),
				Attrs: route.BGPAttrs{LocalPref: 30, ASPath: []uint32{200}}},
			"*Nov  1 10:00:00.000: BGP(0): 10.0.5.2 rcvd UPDATE about 203.0.113.0/24, next hop 10.0.5.2, localpref 30, path 200",
		},
		{
			capture.IO{Type: capture.FIBInstall, Prefix: pfx("203.0.113.0/24"), NextHop: addr("10.0.5.2"), Proto: route.ProtoBGP},
			"*Nov  1 10:00:00.000: %FIB-6-INSTALL: 203.0.113.0/24 via 10.0.5.2 installed in FIB (bgp)",
		},
		{
			capture.IO{Type: capture.LinkDown, Detail: "eth-e2"},
			"*Nov  1 10:00:00.000: %LINEPROTO-5-UPDOWN: Line protocol on Interface eth-e2, changed state to down",
		},
		{
			capture.IO{Type: capture.SessionDown, Proto: route.ProtoBGP, PeerAddr: addr("10.0.5.2")},
			"*Nov  1 10:00:00.000: %BGP-5-ADJCHANGE: neighbor 10.0.5.2 Down",
		},
	}
	for _, c := range cases {
		if got := string(AppendLine(nil, c.io)); got != c.want {
			t.Fatalf("AppendLine = %q\nwant  %q", got, c.want)
		}
	}
}

func TestParseLineKinds(t *testing.T) {
	p := NewParser(func(a netip.Addr) string {
		if a == addr("10.0.5.2") {
			return "e2"
		}
		return ""
	})
	cases := []struct {
		line string
		typ  capture.Type
	}{
		{"*Nov  1 10:00:25.000: %SYS-5-CONFIG_I: Configured from console by admin on vty0 (set lp)", capture.ConfigChange},
		{"*Nov  1 10:00:50.000: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started", capture.SoftReconfig},
		{"*Nov  1 10:00:50.004: BGP(0): 10.0.5.2 rcvd UPDATE about 203.0.113.0/24, next hop 10.0.5.2, localpref 30, path 200", capture.RecvAdvert},
		{"*Nov  1 10:00:50.005: BGP(0): 10.0.5.2 rcvd WITHDRAW about 203.0.113.0/24", capture.RecvWithdraw},
		{"*Nov  1 10:00:50.006: BGP(0): 10.0.5.2 send UPDATE about 203.0.113.0/24, next hop self, localpref 30, path local", capture.SendAdvert},
		{"*Nov  1 10:00:50.007: BGP(0): 10.0.5.2 send WITHDRAW about 203.0.113.0/24", capture.SendWithdraw},
		{"*Nov  1 10:00:50.008: BGP(0): Revise route installing 203.0.113.0/24 -> 10.0.5.2 to main IP table", capture.RIBInstall},
		{"*Nov  1 10:00:50.009: BGP(0): Revise route removing 203.0.113.0/24 from main IP table", capture.RIBRemove},
		{"*Nov  1 10:00:50.010: %FIB-6-INSTALL: 203.0.113.0/24 via 10.0.5.2 installed in FIB (bgp)", capture.FIBInstall},
		{"*Nov  1 10:00:50.011: %FIB-6-REMOVE: 203.0.113.0/24 removed from FIB (bgp)", capture.FIBRemove},
		{"*Nov  1 10:00:50.012: %LINEPROTO-5-UPDOWN: Line protocol on Interface eth-e2, changed state to down", capture.LinkDown},
		{"*Nov  1 10:00:50.013: %LINEPROTO-5-UPDOWN: Line protocol on Interface eth-e2, changed state to up", capture.LinkUp},
		{"*Nov  1 10:00:50.013: %BGP-5-ADJCHANGE: neighbor 10.0.5.2 Down", capture.SessionDown},
		{"*Nov  1 10:00:50.014: OSPF: rcv. LSA origin=1.1.1.1 seq=2 links=2 stubs=1 from 10.0.5.2", capture.RecvAdvert},
		{"*Nov  1 10:00:50.015: OSPF: send LSA origin=1.1.1.1 seq=2 links=2 stubs=1 to 10.0.5.2", capture.SendAdvert},
	}
	var lastID uint64
	for _, c := range cases {
		io, err := p.parse("r2", []byte(c.line))
		if err != nil {
			t.Fatalf("%q: %v", c.line, err)
		}
		if io.Type != c.typ {
			t.Fatalf("%q -> %v, want %v", c.line, io.Type, c.typ)
		}
		if io.Router != "r2" {
			t.Fatalf("router = %q", io.Router)
		}
		if io.ID <= lastID {
			t.Fatalf("IDs not increasing: %d after %d", io.ID, lastID)
		}
		lastID = io.ID
	}
	// Peer resolution worked on the BGP lines.
	io, _ := p.parse("r2", []byte(cases[2].line))
	if io.Peer != "e2" || io.Attrs.LocalPref != 30 || len(io.Attrs.ASPath) != 1 {
		t.Fatalf("parsed attrs = %+v", io)
	}
	// A link's line names its interface; Neighbor gives the peer.
	p.Neighbor = func(router, iface string) string { return router + ">" + iface }
	if io, _ := p.parse("r2", []byte(cases[10].line)); io.Peer != "r2>eth-e2" || io.Detail != "eth-e2" {
		t.Fatalf("parsed link-down = %+v", io)
	}
}

func TestParseErrors(t *testing.T) {
	p := NewParser(nil)
	for _, line := range []string{
		"no timestamp here",
		"*Nov  1 10:00:00.000: gibberish without structure",
		"*Nov  1 10:00:00.000: BGP(0): 10.0.0.1 rcvd UPDATE", // too short
		"*Nov  1 10:00:00.000: BGP(0): notanaddr rcvd UPDATE about 10.0.0.0/8,",
	} {
		if _, err := p.parse("r1", []byte(line)); err == nil {
			t.Fatalf("accepted %q", line)
		}
	}
}

// roundTrip emits and re-parses a set of I/Os grouped by router —
// producing exactly the information a log-collection deployment would
// have: millisecond timestamps, addresses instead of names (unless resolve
// recovers them), and no causality.
func roundTrip(ios []capture.IO, resolve Resolver) ([]capture.IO, error) {
	byRouter := map[string][]capture.IO{}
	var order []string
	for _, x := range ios {
		if _, seen := byRouter[x.Router]; !seen {
			order = append(order, x.Router)
		}
		byRouter[x.Router] = append(byRouter[x.Router], x)
	}
	p := NewParser(resolve)
	var out []capture.IO
	var buf bytes.Buffer
	for _, router := range order {
		buf.Reset()
		if err := EmitLog(&buf, byRouter[router]); err != nil {
			return nil, err
		}
		parsed, err := p.ParseLog(router, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		out = append(out, parsed...)
	}
	return out, nil
}

func TestRoundTripPreservesStructure(t *testing.T) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	orig := pn.Log.Snapshot()
	resolve := func(a netip.Addr) string { return pn.Topo.OwnerOf(a) }
	parsed, err := roundTrip(orig, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(orig) {
		t.Fatalf("parsed %d of %d", len(parsed), len(orig))
	}
	// Per-router event type sequences survive exactly.
	seqOf := func(ios []capture.IO, router string) []capture.Type {
		var out []capture.Type
		for _, io := range ios {
			if io.Router == router {
				out = append(out, io.Type)
			}
		}
		return out
	}
	for _, r := range []string{"r1", "r2", "r3", "e1", "e2"} {
		a, b := seqOf(orig, r), seqOf(parsed, r)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d events", r, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s event %d: %v vs %v", r, i, a[i], b[i])
			}
		}
	}
	// Oracle fields are gone (parsed from text).
	for _, io := range parsed {
		if io.Causes != nil || io.TrueTime != 0 {
			t.Fatalf("oracle leaked through text: %+v", io)
		}
	}
}

// An ECMP install's line carries the whole next-hop set, so a parsed log
// replays to the FIB the router held, not to its lowest member alone.
func TestFIBLineRoundTripsECMPSet(t *testing.T) {
	hops := []netip.Addr{addr("10.0.0.2"), addr("10.0.1.2"), addr("10.0.2.2")}
	io := capture.IO{Router: "r1", Type: capture.FIBInstall, Prefix: pfx("203.0.113.0/24"),
		NextHop: hops[0], NextHops: hops, Proto: route.ProtoOSPF, Time: netsim.VirtualTime(time.Second)}
	line := AppendLine(nil, io)
	if !bytes.Contains(line, []byte(" via 10.0.0.2|10.0.1.2|10.0.2.2 installed")) {
		t.Fatalf("line = %q", line)
	}
	got, err := NewParser(nil).parse("r1", line)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextHop != hops[0] || !slices.Equal(got.NextHops, hops) {
		t.Fatalf("parsed %v via %v, want %v", got.NextHop, got.NextHops, hops)
	}
	ref, err := NewReferenceParser(nil).ParseLine("r1", string(line))
	if err != nil || ref.NextHop != hops[0] || !slices.Equal(ref.NextHops, hops) {
		t.Fatalf("reference parsed %v via %v (%v), want %v", ref.NextHop, ref.NextHops, err, hops)
	}
}

// TestFig5Feasibility reproduces the paper's §7 experiment on our
// substrate: Cisco-style logs with the measured latencies (25 s TTY→soft
// reconfiguration, ~4 ms FIB install, ~8 ms propagation) are emitted,
// parsed back, and the happens-before machinery recovers the Fig. 5
// structure, tracing the violation to R1's soft reconfiguration and the
// TTY config change.
func TestFig5Feasibility(t *testing.T) {
	opt := network.DefaultPaperOpts()
	pn, err := network.BuildPaper(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	pn.SoftReconfigDelay = 25 * time.Second // §7: "Twenty seconds after the console configuration"
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	mark := pn.Log.Len()
	// §7: "we manually change the localpref attribute on router R1 to 200".
	if _, err := pn.UpdateConfig("r1", "neighbor localpref 200", func(c *config.Router) {
		c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 200
	}); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	interesting := pn.Log.Snapshot()[mark:]

	// Emit per-router logs and parse them back (the §7 pipeline).
	resolve := func(a netip.Addr) string { return pn.Topo.OwnerOf(a) }
	parsed, err := roundTrip(interesting, resolve)
	if err != nil {
		t.Fatal(err)
	}
	g := hbr.Rules{}.Infer(parsed)

	find := func(router string, typ capture.Type) capture.IO {
		for _, io := range parsed {
			if io.Router == router && io.Type == typ {
				return io
			}
		}
		return capture.IO{}
	}
	cc := find("r1", capture.ConfigChange)
	soft := find("r1", capture.SoftReconfig)
	r1fib := find("r1", capture.FIBInstall)
	if cc.ID == 0 || soft.ID == 0 || r1fib.ID == 0 {
		t.Fatal("missing Fig. 5 vertices on r1")
	}
	// Edge: TTY config -> soft reconfiguration across the 25s gap.
	if !slices.Contains(g.Parents(soft.ID), cc.ID) {
		t.Fatal("config->soft-reconfig HBR missing")
	}
	if gap := soft.Time.Sub(cc.Time); gap < 24*time.Second {
		t.Fatalf("soft reconfig gap = %v, want ~25s", gap)
	}
	// R2 and R3 receive the LP-200 route and install it within ~4ms, then
	// R2 withdraws its own route (Fig. 5's bottom row).
	for _, r := range []string{"r2", "r3"} {
		recv := capture.IO{}
		for _, io := range parsed {
			if io.Router == r && io.Type == capture.RecvAdvert && io.Peer == "r1" && io.Attrs.LocalPref == 200 {
				recv = io
				break
			}
		}
		if recv.ID == 0 {
			t.Fatalf("%s never received the LP-200 route", r)
		}
		fib := capture.IO{}
		for _, io := range parsed {
			if io.Router == r && io.Type == capture.FIBInstall && io.Time >= recv.Time {
				fib = io
				break
			}
		}
		if fib.ID == 0 {
			t.Fatalf("%s never installed after recv", r)
		}
		if d := fib.Time.Sub(recv.Time); d > 10*time.Millisecond {
			t.Fatalf("%s recv->fib = %v, want a few ms", r, d)
		}
	}
	withdraws := 0
	for _, io := range parsed {
		if io.Router == "r2" && io.Type == capture.SendWithdraw {
			withdraws++
		}
	}
	if withdraws == 0 {
		t.Fatal("r2 never withdrew its own route")
	}
	// Root cause from r3's FIB flip: the config change (and soft
	// reconfiguration chain) on r1.
	var r3fib capture.IO
	for _, io := range parsed {
		if io.Router == "r3" && io.Type == capture.FIBInstall && io.Prefix == network.PrefixP {
			r3fib = io
		}
	}
	if r3fib.ID == 0 {
		t.Fatal("r3 FIB flip missing")
	}
	roots := g.RootCauses(r3fib.ID)
	foundCC := false
	for _, root := range roots {
		if root.ID == cc.ID {
			foundCC = true
		}
	}
	if !foundCC {
		t.Fatalf("roots = %v, want r1's TTY config change", roots)
	}
}

func TestEmitLogWritesLines(t *testing.T) {
	var b strings.Builder
	ios := []capture.IO{
		{Type: capture.SoftReconfig, Proto: route.ProtoBGP},
		{Type: capture.FIBRemove, Prefix: pfx("10.0.0.0/8")},
	}
	if err := EmitLog(&b, ios); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
}

func TestParseLogSkipsBlankLines(t *testing.T) {
	p := NewParser(nil)
	in := "\n*Nov  1 10:00:50.000: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started\n\n"
	ios, err := p.ParseLog("r1", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ios) != 1 || ios[0].Type != capture.SoftReconfig {
		t.Fatalf("ios = %v", ios)
	}
}
