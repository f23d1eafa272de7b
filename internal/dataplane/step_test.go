package dataplane_test

import (
	"net/netip"
	"reflect"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/dataplane"
	"hbverify/internal/dist"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
	"hbverify/internal/topology"
	"hbverify/internal/trie"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }

// via is a static route over one or more next hops; no hops makes it an
// attached (directly delivered) route.
func via(prefix string, hops ...string) route.Route {
	r := route.Route{Prefix: pfx(prefix), Proto: route.ProtoStatic}
	if len(hops) == 0 {
		r.Proto = route.ProtoConnected
		return r
	}
	as := make([]netip.Addr, len(hops))
	for i, h := range hops {
		as[i] = addr(h)
	}
	return r.WithNextHops(as...)
}

// TestStepTable pins the forwarding step — the one place forwarding
// semantics live — case by case, through each of its adaptors: the central
// walker over live tables and over a snapshot, and a fleet node's
// LocalView (whose ClassState is the whole Step, resolution-cycle flag included).
//
// Router x has loopback 9.9.9.1, link eth0 to y (10.0.0.1 <-> 10.0.0.2),
// link eth1 to z (10.0.1.1 <-> 10.0.1.2, down when the case says so) and a
// stub LAN 172.16.0.1/24.
func TestStepTable(t *testing.T) {
	type want struct {
		delivered, dropped, stuck, cycle bool
		nexts                            []string
	}
	cases := []struct {
		name     string
		eth1Down bool
		routes   []route.Route
		dst      string
		want     want
	}{
		// Local delivery, before any FIB lookup.
		{name: "own loopback", dst: "9.9.9.1", want: want{delivered: true}},
		{name: "host on stub LAN", dst: "172.16.0.77", want: want{delivered: true}},
		{name: "own link address", dst: "10.0.0.1", want: want{delivered: true}},
		{name: "peer link address", dst: "10.0.0.2", want: want{delivered: true}},
		{name: "other address in a link subnet falls to the FIB", dst: "10.0.0.3", want: want{dropped: true}},
		{name: "no route", dst: "50.0.0.9", want: want{dropped: true}},
		{name: "attached route", routes: []route.Route{via("50.0.0.0/24")}, dst: "50.0.0.9", want: want{delivered: true}},
		{name: "longest prefix wins", dst: "50.0.0.9", want: want{nexts: []string{"z"}},
			routes: []route.Route{via("50.0.0.0/8", "10.0.0.2"), via("50.0.0.0/24", "10.0.1.2")}},

		// Next-hop resolution.
		{name: "connected peer", routes: []route.Route{via("50.0.0.0/24", "10.0.0.2")}, dst: "50.0.0.9",
			want: want{nexts: []string{"y"}}},
		{name: "recursive via peer", dst: "50.0.0.9", want: want{nexts: []string{"y"}},
			routes: []route.Route{via("50.0.0.0/24", "60.0.0.1"), via("60.0.0.0/24", "10.0.0.2")}},
		{name: "next hop inside stub subnet", routes: []route.Route{via("50.0.0.0/24", "172.16.0.9")}, dst: "50.0.0.9",
			want: want{delivered: true}},
		{name: "next hop is own link address", routes: []route.Route{via("50.0.0.0/24", "10.0.0.1")}, dst: "50.0.0.9",
			want: want{delivered: true}},
		{name: "next hop is own loopback", routes: []route.Route{via("50.0.0.0/24", "9.9.9.1")}, dst: "50.0.0.9",
			want: want{delivered: true}},
		{name: "blackhole: no route to next hop", routes: []route.Route{via("50.0.0.0/24", "80.0.0.1")}, dst: "50.0.0.9",
			want: want{stuck: true}},
		{name: "two-route resolution cycle", dst: "50.0.0.9", want: want{stuck: true, cycle: true},
			routes: []route.Route{via("50.0.0.0/24", "60.0.0.1"), via("60.0.0.0/24", "70.0.0.1"), via("70.0.0.0/24", "60.0.0.1")}},
		{name: "self-referential resolution", dst: "50.0.0.9", want: want{stuck: true, cycle: true},
			routes: []route.Route{via("50.0.0.0/24", "60.0.0.1"), via("60.0.0.0/24", "60.0.0.1")}},
		{name: "acyclic chain past the depth bound", dst: "50.0.0.9", want: want{stuck: true},
			routes: []route.Route{via("50.0.0.0/24", "61.0.0.1"), via("61.0.0.0/24", "62.0.0.1"), via("62.0.0.0/24", "63.0.0.1"),
				via("63.0.0.0/24", "64.0.0.1"), via("64.0.0.0/24", "65.0.0.1"), via("65.0.0.0/24", "10.0.0.2")}},

		// Set semantics.
		{name: "ECMP over two peers", routes: []route.Route{via("50.0.0.0/24", "10.0.1.2", "10.0.0.2")}, dst: "50.0.0.9",
			want: want{nexts: []string{"y", "z"}}},
		{name: "members resolving to one peer collapse", dst: "50.0.0.9", want: want{nexts: []string{"y"}},
			routes: []route.Route{via("50.0.0.0/24", "10.0.0.2", "60.0.0.1"), via("60.0.0.0/24", "10.0.0.2")}},
		{name: "recursion fans out through a multipath entry", dst: "50.0.0.9", want: want{nexts: []string{"y", "z"}},
			routes: []route.Route{via("50.0.0.0/24", "60.0.0.1"), via("60.0.0.0/24", "10.0.0.2", "10.0.1.2")}},
		{name: "one member forwards, one blackholes", routes: []route.Route{via("50.0.0.0/24", "10.0.0.2", "80.0.0.1")}, dst: "50.0.0.9",
			want: want{nexts: []string{"y"}, stuck: true}},
		{name: "one member forwards, one delivers locally", routes: []route.Route{via("50.0.0.0/24", "10.0.0.2", "172.16.0.9")}, dst: "50.0.0.9",
			want: want{nexts: []string{"y"}, delivered: true}},
		{name: "cycle beside a live member", dst: "50.0.0.9", want: want{nexts: []string{"y"}, stuck: true, cycle: true},
			routes: []route.Route{via("50.0.0.0/24", "10.0.0.2", "60.0.0.1"), via("60.0.0.0/24", "60.0.0.1")}},

		// A down interface: the router trusts only what it can see is up.
		{name: "down: own address is not local delivery", eth1Down: true, dst: "10.0.1.1", want: want{dropped: true}},
		{name: "down: peer address follows the FIB", eth1Down: true, routes: []route.Route{via("0.0.0.0/0", "10.0.0.2")}, dst: "10.0.1.2",
			want: want{nexts: []string{"y"}}},
		{name: "down: ECMP member over the dead link is stuck", eth1Down: true, dst: "50.0.0.9", want: want{nexts: []string{"y"}, stuck: true},
			routes: []route.Route{via("50.0.0.0/24", "10.0.0.2", "10.0.1.2")}},
		// The two cases the central walker used to answer from the global
		// topology (OwnerOf ignores link state) and a node answered locally.
		{name: "down: next hop is own address on the down interface", eth1Down: true, dst: "50.0.0.9", want: want{stuck: true},
			routes: []route.Route{via("50.0.0.0/24", "10.0.1.1")}},
		{name: "down: connected FIB entry over the down link", eth1Down: true, dst: "50.0.0.9", want: want{stuck: true},
			routes: []route.Route{via("50.0.0.0/24", "10.0.1.2"), via("10.0.1.0/30")}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.New()
			for i, r := range []string{"x", "y", "z"} {
				if _, err := topo.AddRouter(r, netip.AddrFrom4([4]byte{9, 9, 9, byte(i + 1)})); err != nil {
					t.Fatal(err)
				}
			}
			for i, peer := range []string{"y", "z"} {
				l, err := topo.AddLink(topology.LinkSpec{
					ARouter: "x", AIface: "eth" + string(rune('0'+i)), AAddr: netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
					BRouter: peer, BIface: "eth0", BAddr: netip.AddrFrom4([4]byte{10, 0, byte(i), 2}),
					Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 30),
				})
				if err != nil {
					t.Fatal(err)
				}
				l.SetUp(peer != "z" || !tc.eth1Down)
			}
			if _, err := topo.AddStub("x", "lan", addr("172.16.0.1"), pfx("172.16.0.0/24")); err != nil {
				t.Fatal(err)
			}
			table := fib.NewTable(capture.NewRecorder(capture.NewLog(), "x", netsim.NewScheduler(1), nil))
			for _, r := range tc.routes {
				table.Offer(r)
			}
			snap := table.Snapshot()
			dst := addr(tc.dst)

			live := dataplane.NewWalker(topo, dataplane.TableView(map[string]*fib.Table{"x": table}))
			frozen := dataplane.NewWalker(topo, dataplane.SnapshotView(map[string]*trie.Trie[fib.Entry]{"x": snap}))
			x := topo.Router("x")
			node := dist.LocalView{Router: "x", Loopback: x.Loopback, Ifaces: dataplane.IfacesOf(x), FIB: snap}

			wantEx := dataplane.Expansion{Delivered: tc.want.delivered, Dropped: tc.want.dropped, Stuck: tc.want.stuck, Nexts: tc.want.nexts}
			for name, got := range map[string]dataplane.Expansion{
				"TableView":    live.Expand("x", dst),
				"SnapshotView": frozen.Expand("x", dst),
				"LocalView":    node.Expand(dst),
			} {
				if !reflect.DeepEqual(got, wantEx) {
					t.Errorf("%s: expansion %+v, want %+v", name, got, wantEx)
				}
			}
			// ClassState judges a class by its representative; a host class
			// makes that exactly dst.
			st := node.ClassState(netip.PrefixFrom(dst, dst.BitLen()))
			if !reflect.DeepEqual(st.Expansion, wantEx) || st.Cycle != tc.want.cycle {
				t.Errorf("ClassState %+v, want %+v cycle=%v", st, wantEx, tc.want.cycle)
			}
		})
	}
}
