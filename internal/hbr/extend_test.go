// Tests for what Incremental.extend evaluates and indexes: a randomized
// chunked-growth differential against full inference and the exact edges of
// the three bounds the rules' windows yield.

package hbr

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
	"hbverify/internal/metrics"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// jitterSlack bounds how far jitterLog's observed times run against its
// append order: an event is stamped up to 62 ms after the tick that appends
// it, plus ±20 ms of skew per router and ±10 ms of jitter per event.
const jitterSlack = 125 * time.Millisecond

// jitterLog is synthLog with the clocks a scan boundary is sensitive to: a
// per-router skew plus a per-event jitter, so one router's observed times are
// not monotone in append order, and config changes sparse enough that most of
// a ConfigWindow holds none. Adverts are keyed by prefix (BGP, RIP, EIGRP
// chains) and by Detail (OSPF floods, now and then sent twice).
func jitterLog(seed int64, n, nRouters int) []capture.IO {
	rng := rand.New(rand.NewSource(seed))
	routers := make([]string, nRouters)
	skew := make([]time.Duration, nRouters)
	for i := range routers {
		routers[i] = fmt.Sprintf("r%d", i)
		skew[i] = time.Duration(rng.Intn(41)-20) * time.Millisecond
	}
	prefixes := make([]netip.Prefix, 6)
	for i := range prefixes {
		prefixes[i] = netip.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))
	}
	protos := []route.Protocol{route.ProtoBGP, route.ProtoOSPF, route.ProtoRIP, route.ProtoEIGRP}

	var out []capture.IO
	base := netsim.VirtualTime(int64(time.Minute))
	add := func(r int, io capture.IO, dt time.Duration) {
		io.ID = uint64(len(out) + 1)
		io.Router = routers[r]
		io.Time = base.Add(dt + skew[r] + time.Duration(rng.Intn(21)-10)*time.Millisecond)
		out = append(out, io)
	}
	for len(out) < n {
		base = base.Add(time.Duration(2+rng.Intn(9)) * time.Millisecond)
		a := rng.Intn(nRouters)
		b := (a + 1 + rng.Intn(nRouters-1)) % nRouters
		switch k := rng.Intn(40); {
		case k == 0:
			add(a, capture.IO{Type: capture.ConfigChange, Detail: "policy edit"}, 0)
		case k == 1:
			add(a, capture.IO{Type: capture.SoftReconfig, Proto: route.ProtoBGP}, 0)
		case k < 4:
			add(a, capture.IO{Type: capture.LinkUp + capture.Type(rng.Intn(2)), Peer: routers[b], Detail: "eth0"}, 0)
		case k < 12:
			detail := fmt.Sprintf("LSA type 1 seq %d", rng.Intn(4))
			add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[b], Detail: detail}, 0)
			if rng.Intn(3) == 0 {
				add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[b], Detail: detail},
					time.Duration(rng.Intn(40))*time.Millisecond)
			}
			add(b, capture.IO{Type: capture.RecvAdvert, Proto: route.ProtoOSPF, Peer: routers[a], Detail: detail},
				time.Duration(rng.Intn(30))*time.Millisecond)
			add(b, capture.IO{Type: capture.RIBInstall, Proto: route.ProtoOSPF, Prefix: prefixes[rng.Intn(len(prefixes))]},
				time.Duration(30+rng.Intn(30))*time.Millisecond)
		default:
			proto, pfx := protos[rng.Intn(len(protos))], prefixes[rng.Intn(len(prefixes))]
			kind, rkind := capture.SendAdvert, capture.RecvAdvert
			if rng.Intn(4) == 0 {
				kind, rkind = capture.SendWithdraw, capture.RecvWithdraw
			}
			add(a, capture.IO{Type: capture.RIBInstall, Proto: proto, Prefix: pfx}, 0)
			add(a, capture.IO{Type: capture.FIBInstall, Proto: proto, Prefix: pfx}, time.Millisecond)
			add(a, capture.IO{Type: kind, Proto: proto, Prefix: pfx, Peer: routers[b]}, 2*time.Millisecond)
			add(b, capture.IO{Type: rkind, Proto: proto, Prefix: pfx, Peer: routers[a]},
				time.Duration(2+rng.Intn(60))*time.Millisecond)
		}
	}
	return out[:n]
}

// TestExtendChunkedGrowthMatchesFull is the differential for the suffix
// path: an Incremental grown in random 1–40-event steps — boundaries fall
// between a send and its receive, inside a chain, on either side of a jittered
// timestamp — must equal a fresh full inference of the same prefix of the
// log at every step, for two window shapes: cross below near, and cross
// above it. The windows are a fraction of the log's span, so all three
// floors and the scan's own cross real events.
func TestExtendChunkedGrowthMatchesFull(t *testing.T) {
	seeds, n := int64(6), 1000
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		ios := jitterLog(seed, n, 3+int(seed%3))
		for _, base := range []Rules{
			{Window: 200 * time.Millisecond, ConfigWindow: 600 * time.Millisecond, CrossWindow: 120 * time.Millisecond},
			{Window: 80 * time.Millisecond, ConfigWindow: 500 * time.Millisecond, CrossWindow: 250 * time.Millisecond},
		} {
			reg := metrics.NewRegistry()
			inc := NewIncremental(base, reg)
			inc.SkewSlack = jitterSlack
			rng := rand.New(rand.NewSource(seed))
			for at := 0; at < len(ios); {
				at = min(len(ios), at+1+rng.Intn(40))
				got, want := inc.Infer(ios[:at]), base.Infer(ios[:at])
				if d := diffGraphs(got, want); d != "" {
					t.Fatalf("seed %d, %v, %d events: incremental vs full: %s", seed, base, at, d)
				}
				if at == len(ios) && want.EdgeCount() < n/4 {
					t.Fatalf("seed %d, %v: only %d edges over %d events; the log exercises nothing", seed, base, want.EdgeCount(), n)
				}
			}
			full, win := reg.Counter("infer.cache.misses").Value(), reg.Counter("infer.window.ios").Value()
			if ev, ix := reg.Counter("infer.evaluated.ios").Value(), reg.Counter("infer.indexed.ios").Value(); full != 1 || ev == 0 || ev >= ix || ix >= win {
				t.Fatalf("seed %d, %v: %d full inferences; %d evaluated, %d indexed, %d scanned events, want one and each count under the next",
					seed, base, full, ev, ix, win)
			}
		}
	}
}

// edgeLog numbers hand-placed events 1.. in the order given.
func edgeLog(ios ...capture.IO) []capture.IO {
	for i := range ios {
		ios[i].ID = uint64(i + 1)
	}
	return ios
}

// TestExtendReachBoundaries places one event exactly on each bound extend
// derives from the windows Rules.windows() returns, and one a millisecond
// beyond it. Default Rules: cross = CrossWindow = 500 ms, near = Window =
// 500 ms, config changes matched out to ConfigWindow = 60 s. Every case's
// last event is the suffix, observed at t0, and the extended graph must equal
// a full inference; evaluated and indexed count what extend looked at.
func TestExtendReachBoundaries(t *testing.T) {
	const t0 = 200 * time.Second
	ms := func(d int) netsim.VirtualTime { return netsim.VirtualTime(t0 + time.Duration(d)*time.Millisecond) }
	pfx := netip.MustParsePrefix("10.0.0.0/16")
	send := func(at int) capture.IO {
		return capture.IO{Router: "a", Peer: "b", Type: capture.SendAdvert, Proto: route.ProtoBGP, Prefix: pfx, Time: ms(at)}
	}
	recv := func(at int) capture.IO {
		return capture.IO{Router: "b", Peer: "a", Type: capture.RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx, Time: ms(at)}
	}
	link := func(router string, at int) capture.IO { // takes no parent, and is none beyond Window
		return capture.IO{Router: router, Type: capture.LinkUp, Time: ms(at)}
	}
	cases := []struct {
		name               string
		ios                []capture.IO
		edges              []hbg.Edge
		evaluated, indexed int64
	}{
		// An old receive a cross window before the suffix is the oldest event
		// a suffix send can become the parent of.
		{"receive at minTime-cross is re-derived", edgeLog(recv(-500), send(0)),
			[]hbg.Edge{{From: 2, To: 1}}, 2, 2},
		{"receive 1ms older keeps its edges", edgeLog(send(-600), recv(-501), send(0)),
			[]hbg.Edge{{From: 1, To: 2}}, 1, 3},
		// That receive is as near to a send two cross windows back as to the
		// suffix send; the tie goes to the earlier one, which must be filed.
		{"send at minTime-2cross is matched", edgeLog(send(-1000), recv(-500), send(0)),
			[]hbg.Edge{{From: 1, To: 2}}, 2, 3},
		{"send 1ms older is not needed", edgeLog(send(-1001), recv(-500), send(0)),
			[]hbg.Edge{{From: 3, To: 2}}, 2, 2},
		// A config change a full ConfigWindow behind a suffix event, with
		// nothing but other kinds in between: only it is indexed down there.
		{"config change at ConfigWindow is found through the sparse part", edgeLog(
			capture.IO{Router: "a", Type: capture.ConfigChange, Time: ms(-60_000)},
			link("a", -40_000), link("a", -20_000), link("b", -1001),
			capture.IO{Router: "a", Type: capture.RIBInstall, Proto: route.ProtoBGP, Prefix: pfx, Time: ms(0)}),
			[]hbg.Edge{{From: 1, To: 5}}, 1, 2},
		{"config change 1ms older is out of reach", edgeLog(
			capture.IO{Router: "a", Type: capture.ConfigChange, Time: ms(-60_001)},
			capture.IO{Router: "a", Type: capture.RIBInstall, Proto: route.ProtoBGP, Prefix: pfx, Time: ms(0)}),
			nil, 1, 2},
		// A slow clock puts an event from below every floor AFTER the send
		// the suffix needs: positions are chosen event by event, so the scan
		// passes over the straggler instead of stopping at it.
		{"straggler inside the slack is passed over", edgeLog(send(-100), link("c", -2500), recv(0)),
			[]hbg.Edge{{From: 1, To: 3}}, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			inc := NewIncremental(Rules{}, reg)
			inc.Infer(c.ios[:len(c.ios)-1])
			got := inc.Infer(c.ios)
			if d := diffGraphs(got, Rules{}.Infer(c.ios)); d != "" {
				t.Fatalf("incremental vs full: %s", d)
			}
			if e := got.Edges(); fmt.Sprint(e) != fmt.Sprint(c.edges) {
				t.Fatalf("edges = %v, want %v", e, c.edges)
			}
			if ev, ix := reg.Counter("infer.evaluated.ios").Value(), reg.Counter("infer.indexed.ios").Value(); ev != c.evaluated || ix != c.indexed {
				t.Fatalf("evaluated %d and indexed %d events, want %d and %d", ev, ix, c.evaluated, c.indexed)
			}
		})
	}
}
