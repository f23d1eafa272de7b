package dist

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/dataplane"
	"hbverify/internal/eqclass"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
	"hbverify/internal/topology"
)

// ecmpWorld is one construction of the same tiny ECMP network: r1 forwards
// 55.0.0.0/24 over an equal-cost set toward r2 and r3, both of which
// deliver it from a local stub. The builder takes the next-hop offer order
// and the link creation order as parameters so the test can prove neither
// leaks into any layer's output.
type ecmpWorld struct {
	entry  fib.Entry
	sig    string
	walk   dataplane.Walk
	frame  []byte
	efib   []byte
	prefix netip.Prefix
}

func buildEcmpWorld(t *testing.T, hops []netip.Addr, linksReversed bool) ecmpWorld {
	t.Helper()
	p := pfx("55.0.0.0/24")

	topo := topology.New()
	for i, r := range []string{"r1", "r2", "r3"} {
		if _, err := topo.AddRouter(r, netip.AddrFrom4([4]byte{9, 9, 9, byte(i + 1)})); err != nil {
			t.Fatal(err)
		}
	}
	links := []topology.LinkSpec{
		{ARouter: "r1", AIface: "to-r2", AAddr: addr("10.0.1.1"),
			BRouter: "r2", BIface: "to-r1", BAddr: addr("10.0.1.2"),
			Prefix: pfx("10.0.1.0/30")},
		{ARouter: "r1", AIface: "to-r3", AAddr: addr("10.0.2.1"),
			BRouter: "r3", BIface: "to-r1", BAddr: addr("10.0.2.2"),
			Prefix: pfx("10.0.2.0/30")},
	}
	if linksReversed {
		links[0], links[1] = links[1], links[0]
	}
	for _, l := range links {
		if _, err := topo.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []string{"r2", "r3"} {
		if _, err := topo.AddStub(r, "lan", addr("55.0.0."+r[1:]), p); err != nil {
			t.Fatal(err)
		}
	}

	sched := netsim.NewScheduler(1)
	tables := map[string]*fib.Table{}
	for _, r := range []string{"r1", "r2", "r3"} {
		tables[r] = fib.NewTable(capture.NewRecorder(capture.NewLog(), r, sched, nil))
	}
	tables["r1"].Offer(route.Route{Prefix: p, Proto: route.ProtoStatic}.WithNextHops(hops...))
	entry, ok := tables["r1"].Exact(p)
	if !ok {
		t.Fatal("ECMP static not installed")
	}

	fibs := map[string]map[netip.Prefix]fib.Entry{
		"r1": tables["r1"].Snapshot(),
		"r2": tables["r2"].Snapshot(),
		"r3": tables["r3"].Snapshot(),
	}
	walker := dataplane.NewWalker(topo, dataplane.TableView(tables))
	walk := walker.Forward("r1", dataplane.Representative(p))

	msg := WalkMsg{
		WalkID: 1, Source: "r1", Dst: walk.Dst, Path: walk.Path, Outcome: walk.Outcome,
		Done: true, Egress: walk.Egress, Egresses: walk.Egresses,
		Edges: walk.Edges, Branches: walk.Branches,
	}
	return ecmpWorld{
		entry:  entry,
		sig:    eqclass.Signature(fibs, p),
		walk:   walk,
		frame:  appendWalkBatch(nil, mtResultBatch, 7, []WalkMsg{msg}),
		efib:   appendEntry(nil, entry),
		prefix: p,
	}
}

// TestNextHopSetOrderingEndToEnd pins canonical next-hop-set ordering
// through every layer: whatever order the hops are offered in and whatever
// order the topology's links were created in, the installed fib entry, the
// equivalence-class signature, the symbolic walk DAG, and the dist frame
// bytes must be identical — the property the distributed byte-parity
// oracle and the walk caches key on.
func TestNextHopSetOrderingEndToEnd(t *testing.T) {
	h1, h2 := addr("10.0.1.2"), addr("10.0.2.2")
	a := buildEcmpWorld(t, []netip.Addr{h1, h2}, false)
	b := buildEcmpWorld(t, []netip.Addr{h2, h1}, true)

	if !a.entry.Equal(b.entry) {
		t.Fatalf("fib entries diverge by offer order:\n  %v\n  %v", a.entry, b.entry)
	}
	if got := a.entry.HopSet(); len(got) != 2 || got[0] != h1 || got[1] != h2 {
		t.Fatalf("hop set not canonical: %v", got)
	}

	if a.sig != b.sig {
		t.Fatalf("eqclass signatures diverge:\n  %q\n  %q", a.sig, b.sig)
	}
	if !strings.Contains(a.sig, h1.String()+"|"+h2.String()) {
		t.Fatalf("signature does not render the sorted set: %q", a.sig)
	}

	if !reflect.DeepEqual(a.walk, b.walk) {
		t.Fatalf("symbolic walks diverge:\n  %+v\n  %+v", a.walk, b.walk)
	}
	want := dataplane.Walk{
		Dst: addr("55.0.0.1"), Outcome: dataplane.DivergentEgress,
		Path: []string{"r1", "r2", "r3"}, Egresses: []string{"r2", "r3"},
		Edges: [][2]string{{"r1", "r2"}, {"r1", "r3"}}, Branches: 1,
	}
	if !reflect.DeepEqual(a.walk, want) {
		t.Fatalf("walk DAG not in canonical order:\n  got  %+v\n  want %+v", a.walk, want)
	}

	if !bytes.Equal(a.frame, b.frame) {
		t.Fatalf("walk-batch frame bytes diverge:\n  % x\n  % x", a.frame, b.frame)
	}
	if !bytes.Equal(a.efib, b.efib) {
		t.Fatalf("fib-entry frame bytes diverge:\n  % x\n  % x", a.efib, b.efib)
	}
}
