// Tests for what Incremental.extend evaluates and indexes: a randomized
// chunked-growth differential against full inference and the exact edges of
// the bounds the rules' windows yield, beside the channel table that needs
// none.

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
// chains) and by Detail (OSPF floods, now and then sent twice and once in a
// while lost); a receive is now and then appended before its send, as a
// merge by observed time does, and a link event is logged at both ends.
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
			link := capture.LinkUp + capture.Type(rng.Intn(2))
			add(a, capture.IO{Type: link, Peer: routers[b], Detail: "eth0"}, 0)
			add(b, capture.IO{Type: link, Peer: routers[a], Detail: "eth0"}, time.Millisecond)
		case k < 12:
			detail := fmt.Sprintf("LSA type 1 seq %d", rng.Intn(4))
			for twice := rng.Intn(3) == 0; ; twice = false {
				add(a, capture.IO{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Peer: routers[b], Detail: detail}, 0)
				if !twice || rng.Intn(2) == 0 { // now and then one is lost: the channel desyncs
					add(b, capture.IO{Type: capture.RecvAdvert, Proto: route.ProtoOSPF, Peer: routers[a], Detail: detail},
						time.Duration(rng.Intn(30))*time.Millisecond)
				}
				if !twice {
					break
				}
			}
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
			send := func() {
				add(a, capture.IO{Type: kind, Proto: proto, Prefix: pfx, Peer: routers[b]}, 2*time.Millisecond)
			}
			recvFirst := rng.Intn(4) == 0
			if !recvFirst {
				send()
			}
			add(b, capture.IO{Type: rkind, Proto: proto, Prefix: pfx, Peer: routers[a]},
				time.Duration(2+rng.Intn(60))*time.Millisecond)
			if recvFirst {
				send()
			}
		}
	}
	return out[:n]
}

// TestExtendChunkedGrowthMatchesFull is the differential for the suffix
// path: an Incremental grown in random 1–40-event steps — boundaries fall
// between a send and its receive either way round, inside a chain, on either
// side of a jittered timestamp — must equal a fresh full inference of the
// same prefix of the log at every step, for two window shapes. The windows
// are a fraction of the log's span, so both floors and the scan's own cross
// real events.
func TestExtendChunkedGrowthMatchesFull(t *testing.T) {
	seeds, n := int64(6), 1000
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		ios := jitterLog(seed, n, 3+int(seed%3))
		for _, base := range []Rules{
			{Window: 200 * time.Millisecond, ConfigWindow: 600 * time.Millisecond},
			{Window: 80 * time.Millisecond, ConfigWindow: 500 * time.Millisecond},
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
// beyond it. Default Rules: near = Window = 500 ms, config changes matched
// out to ConfigWindow = 60 s. A receive's send is its place on the channel,
// which reaches any distance with no bound. Every case's last event is the
// suffix, observed at t0, and the extended graph must equal a full
// inference; evaluated and indexed count what extend looked at.
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
	install := func(at int) capture.IO {
		return capture.IO{Router: "b", Type: capture.RIBInstall, Proto: route.ProtoBGP, Prefix: pfx, Time: ms(at)}
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
		// A receive waiting on the table gets the suffix send as its one
		// in-edge, however far back it lies; it is not re-derived.
		{"waiting receive gets the suffix send", edgeLog(recv(-90_000), send(0)),
			[]hbg.Edge{{From: 2, To: 1}}, 1, 1},
		// A suffix receive is paired with the oldest unmatched send on its
		// channel, which need not be indexed, and a later send stays queued.
		{"receive is paired with the oldest unmatched send", edgeLog(send(-150_000), send(-600), recv(0)),
			[]hbg.Edge{{From: 1, To: 3}}, 1, 1},
		// A paired receive below every floor is neither evaluated nor indexed.
		{"receive 1ms older keeps its edges", edgeLog(send(-600), recv(-501), send(0)),
			[]hbg.Edge{{From: 1, To: 2}}, 1, 1},
		// The same-router rule reaches back Window: an install's receive at
		// exactly that distance is found, one 1ms older is not.
		{"receive at Window triggers an install", edgeLog(recv(-500), install(0)),
			[]hbg.Edge{{From: 1, To: 2}}, 1, 2},
		{"receive 1ms older triggers nothing", edgeLog(recv(-501), install(0)),
			nil, 1, 1},
		// A config change a full ConfigWindow behind a suffix event, with
		// nothing but other kinds in between: only it is indexed down there.
		{"config change at ConfigWindow is found through the sparse part", edgeLog(
			capture.IO{Router: "a", Type: capture.ConfigChange, Time: ms(-60_000)},
			link("a", -40_000), link("a", -20_000), link("b", -501),
			capture.IO{Router: "a", Type: capture.RIBInstall, Proto: route.ProtoBGP, Prefix: pfx, Time: ms(0)}),
			[]hbg.Edge{{From: 1, To: 5}}, 1, 2},
		{"config change 1ms older is out of reach", edgeLog(
			capture.IO{Router: "a", Type: capture.ConfigChange, Time: ms(-60_001)},
			capture.IO{Router: "a", Type: capture.RIBInstall, Proto: route.ProtoBGP, Prefix: pfx, Time: ms(0)}),
			nil, 1, 2},
		// A slow clock puts an event from below every floor AFTER the receive
		// the suffix install needs: positions are chosen event by event, so
		// the scan passes over the straggler instead of stopping at it.
		{"straggler inside the slack is passed over", edgeLog(recv(-100), link("c", -2500), install(0)),
			[]hbg.Edge{{From: 1, To: 3}}, 1, 2},
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
