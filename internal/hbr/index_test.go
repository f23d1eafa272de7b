package hbr

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// synthLog builds a deterministic multi-router, multi-protocol log with
// skewed clocks, duplicate timestamps, prefix-less OSPF LSAs, and config
// churn — every code path the matcher and rule tables branch on.
func synthLog(seed int64, n, nRouters int) []capture.IO {
	rng := rand.New(rand.NewSource(seed))
	routers := make([]string, nRouters)
	skew := make([]time.Duration, nRouters)
	for i := range routers {
		routers[i] = fmt.Sprintf("r%d", i)
		skew[i] = time.Duration(rng.Intn(401)-200) * time.Millisecond
	}
	prefixes := make([]netip.Prefix, 32)
	for i := range prefixes {
		prefixes[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/8, i%8*32))
	}
	protos := []route.Protocol{route.ProtoBGP, route.ProtoOSPF, route.ProtoRIP, route.ProtoEIGRP}

	var out []capture.IO
	id := uint64(1)
	base := netsim.VirtualTime(0)
	add := func(r int, io capture.IO, dt time.Duration) {
		io.ID = id
		id++
		io.Router = routers[r]
		io.Time = base.Add(dt + skew[r])
		out = append(out, io)
	}
	for len(out) < n {
		base = base.Add(time.Duration(1+rng.Intn(5)) * time.Millisecond)
		a := rng.Intn(nRouters)
		b := (a + 1) % nRouters
		switch rng.Intn(10) {
		case 0:
			add(a, capture.IO{Type: capture.ConfigChange, Detail: "policy edit"}, 0)
		case 1:
			up := capture.LinkUp
			if rng.Intn(2) == 0 {
				up = capture.LinkDown
			}
			add(a, capture.IO{Type: up, Peer: routers[b], Detail: "eth0"}, 0)
		case 2:
			// Prefix-less OSPF LSA flood: send at a, recv at b, matched by
			// Detail. Occasionally duplicate the send so tie-breaking and
			// |distance| comparisons are exercised.
			detail := fmt.Sprintf("LSA type 1 seq %d", rng.Intn(8))
			addr := netip.MustParseAddr(fmt.Sprintf("10.255.0.%d", a+1))
			add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[b], PeerAddr: addr, Detail: detail}, 0)
			if rng.Intn(3) == 0 {
				add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[b], PeerAddr: addr, Detail: detail},
					time.Duration(rng.Intn(20))*time.Millisecond)
			}
			add(b, capture.IO{Type: capture.RecvAdvert, Proto: route.ProtoOSPF, Peer: routers[a], PeerAddr: addr, Detail: detail},
				time.Duration(rng.Intn(10))*time.Millisecond)
		default:
			proto := protos[rng.Intn(len(protos))]
			pfx := prefixes[rng.Intn(len(prefixes))]
			nh := netip.MustParseAddr(fmt.Sprintf("10.255.0.%d", a+1))
			kind := capture.SendAdvert
			rkind := capture.RecvAdvert
			if rng.Intn(4) == 0 {
				kind, rkind = capture.SendWithdraw, capture.RecvWithdraw
			}
			add(a, capture.IO{Type: capture.RIBInstall, Proto: proto, Prefix: pfx, NextHop: nh}, 0)
			add(a, capture.IO{Type: capture.FIBInstall, Proto: proto, Prefix: pfx, NextHop: nh}, time.Millisecond)
			add(a, capture.IO{Type: kind, Proto: proto, Prefix: pfx, Peer: routers[b], PeerAddr: nh}, 2*time.Millisecond)
			add(b, capture.IO{Type: rkind, Proto: proto, Prefix: pfx, Peer: routers[a], PeerAddr: nh, NextHop: nh},
				2*time.Millisecond+time.Duration(rng.Intn(8))*time.Millisecond)
			if rng.Intn(8) == 0 {
				add(b, capture.IO{Type: capture.SoftReconfig, Proto: route.ProtoBGP}, 3*time.Millisecond)
			}
		}
	}
	return out[:n]
}

// diffGraphs returns a description of the first node, edge, or confidence
// difference between two graphs, or "" when they are identical.
func diffGraphs(fast, ref *hbg.Graph) string {
	fn, rn := fast.Nodes(), ref.Nodes()
	if len(fn) != len(rn) {
		return fmt.Sprintf("node count %d != %d", len(fn), len(rn))
	}
	for i := range fn {
		if fn[i].ID != rn[i].ID {
			return fmt.Sprintf("node[%d] id %d != %d", i, fn[i].ID, rn[i].ID)
		}
	}
	fe, re := fast.Edges(), ref.Edges()
	if len(fe) != len(re) {
		return fmt.Sprintf("edge count %d != %d", len(fe), len(re))
	}
	for i := range fe {
		if fe[i] != re[i] {
			return fmt.Sprintf("edge[%d] %d->%d != %d->%d", i, fe[i].From, fe[i].To, re[i].From, re[i].To)
		}
		if fc, rc := fast.Confidence(fe[i].From, fe[i].To), ref.Confidence(re[i].From, re[i].To); fc != rc {
			return fmt.Sprintf("conf(%d->%d) %v != %v", fe[i].From, fe[i].To, fc, rc)
		}
	}
	return ""
}

// TestFastMatchesReference asserts the shared-index strategies reproduce
// the pre-Index implementations exactly — node sets, edge sets, and
// per-edge confidences — across seeds and log sizes straddling the
// parallel-shard threshold.
func TestFastMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []int{40, 700, 3 * parallelMinEvents} {
			ios := synthLog(seed, n, 5)
			fast := Strategies(ios, 0)
			ref := ReferenceStrategies(ios, 0)
			if len(fast) != len(ref) {
				t.Fatalf("lineup size %d != %d", len(fast), len(ref))
			}
			for i := range fast {
				if fast[i].Name() != ref[i].Name() {
					t.Fatalf("lineup order: %s != %s", fast[i].Name(), ref[i].Name())
				}
				if d := diffGraphs(fast[i].Infer(ios), ref[i].Infer(ios)); d != "" {
					t.Errorf("seed %d n %d strategy %s: %s", seed, n, fast[i].Name(), d)
				}
			}
		}
	}
}

// TestInferAllMatchesSequential asserts the concurrent shared-index run
// produces the same graphs as strategy-at-a-time inference.
func TestInferAllMatchesSequential(t *testing.T) {
	ios := synthLog(7, 2500, 4)
	strategies := Strategies(ios, 0)
	all := InferAll(ios, strategies)
	for i, s := range strategies {
		if d := diffGraphs(all[i], s.Infer(ios)); d != "" {
			t.Errorf("strategy %s: %s", s.Name(), d)
		}
	}
}

// TestSwapSendMatchBugDiverges proves the injectable matcher bug produces
// a detectable divergence: with two in-window candidate sends at different
// distances, the bugged fast path must disagree with the reference.
func TestSwapSendMatchBugDiverges(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	addr := netip.MustParseAddr("10.255.0.1")
	mk := func(id uint64, r string, typ capture.Type, peer string, at time.Duration) capture.IO {
		return capture.IO{ID: id, Router: r, Type: typ, Proto: route.ProtoBGP, Prefix: pfx,
			Peer: peer, PeerAddr: addr, Time: netsim.VirtualTime(0).Add(at)}
	}
	ios := []capture.IO{
		mk(1, "a", capture.SendAdvert, "b", 0),
		mk(2, "a", capture.SendAdvert, "b", 90*time.Millisecond),
		mk(3, "b", capture.RecvAdvert, "a", 100*time.Millisecond),
	}
	r := Rules{}
	want := Reference(r).Infer(ios)
	if !want.HasEdge(2, 3) {
		t.Fatal("reference did not pick the nearest send")
	}
	SetSwapSendMatchBug(true)
	defer SetSwapSendMatchBug(false)
	got := r.Infer(ios)
	if d := diffGraphs(got, want); d == "" {
		t.Fatal("swap-send-match bug produced no divergence")
	}
	if !got.HasEdge(1, 3) {
		t.Fatal("bugged matcher did not pick the furthest send")
	}
}

// TestInferenceDeterministicAcrossGOMAXPROCS: which worker fills which
// chunk buffer varies with the worker count; the assembled graph may not,
// down to the checkpoint bytes.
func TestInferenceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ios := synthLog(5, 4*parallelMinEvents, 6)
	strategies := Strategies(ios, 0)
	encode := func(g *hbg.Graph) []byte {
		var buf bytes.Buffer
		if err := (&hbg.Checkpoint{Graph: g}).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var want [][]byte
	for _, s := range strategies {
		want = append(want, encode(s.Infer(ios)))
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		for i, s := range strategies {
			if !bytes.Equal(encode(s.Infer(ios)), want[i]) {
				t.Errorf("%s: GOMAXPROCS=%d infers a different graph than GOMAXPROCS=1", s.Name(), procs)
			}
		}
	}
}
