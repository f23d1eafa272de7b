// Churn schedules: the randomized event sequences a scenario injects
// between convergence rounds, and their application to a running network.
// Events are plain JSON-friendly data so a failure artifact replays
// byte-identically from the (seed, schedule) pair alone.

package scenario

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"hbverify/internal/config"
)

// Event kinds.
const (
	KindLinkDown     = "link-down"
	KindLinkUp       = "link-up"
	KindSessionReset = "session-reset"
	KindConfigLP     = "config-lp"
	KindStaticAdd    = "static-add"
	KindStaticDel    = "static-del"
	// KindLagDown / KindLagUp flap one member of an ECMP fan-out — a link
	// whose loss narrows an equal-cost group rather than partitioning the
	// graph (a partial-LAG failure). Mechanically a link flap; the draw is
	// biased to multi-homed links so symbolic walks see set churn.
	KindLagDown = "lag-down"
	KindLagUp   = "lag-up"
	// KindEcmpStatic installs (or rewrites in place) a static route whose
	// next-hop set spans a random subset of the router's connected peers.
	// Re-draws across rounds widen and narrow the set — hash-polarization
	// churn — exercising withdraw-one-member transitions end to end.
	KindEcmpStatic = "ecmp-static"
	// KindRRFlap resets every iBGP client session of one route-reflector
	// hub at once — a reflector process restart as its clients see it. A
	// names the hub; Peers lists the clients whose sessions drop. Only the
	// isp-rr world populates the hub pool.
	KindRRFlap = "rr-session-flap"
	// KindPrefixBurst / KindPrefixWithdraw originate and then retract a
	// batch of BGP Networks on one speaker — a flap of a customer block
	// arriving as a burst advertisement. A names the origin, Prefix the
	// first /24, Value how many consecutive /24s the burst spans.
	KindPrefixBurst    = "prefix-burst"
	KindPrefixWithdraw = "prefix-withdraw"
)

// Event is one scheduled churn action. A and B name routers (for link and
// session events) or router and neighbor address (for config-lp); At is
// the virtual-time offset from the round's start.
type Event struct {
	Round    int      `json:"round"`
	At       int64    `json:"at"` // nanoseconds into the round
	Kind     string   `json:"kind"`
	A        string   `json:"a,omitempty"`
	B        string   `json:"b,omitempty"`
	Prefix   string   `json:"prefix,omitempty"`
	NextHop  string   `json:"nextHop,omitempty"`
	NextHops []string `json:"nextHops,omitempty"`
	Value    uint32   `json:"value,omitempty"`
	// Peers lists the client routers of an rr-session-flap hub.
	Peers []string `json:"peers,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("r%d+%s %s", e.Round, time.Duration(e.At), e.Kind)
	if e.A != "" {
		s += " " + e.A
	}
	if e.B != "" {
		s += "/" + e.B
	}
	if e.Prefix != "" {
		s += " " + e.Prefix
	}
	if e.NextHop != "" {
		s += " via " + e.NextHop
	}
	for i, nh := range e.NextHops {
		if i == 0 {
			s += " via "
		} else {
			s += "|"
		}
		s += nh
	}
	if e.Kind == KindConfigLP {
		s += fmt.Sprintf(" lp=%d", e.Value)
	}
	if e.Kind == KindPrefixBurst || e.Kind == KindPrefixWithdraw {
		s += fmt.Sprintf(" x%d", e.Value)
	}
	for i, p := range e.Peers {
		if i == 0 {
			s += " clients "
		} else {
			s += ","
		}
		s += p
	}
	return s
}

// generateSchedule draws a churn schedule for cfg over the given world.
// Link flaps emit a down/up pair so greedy shrinking can strand a link in
// either state; session resets and config edits are single events. The
// draw depends only on (Seed, Rounds) and the (deterministic) world.
func generateSchedule(cfg Config, w *world) []Event {
	rng := deriveRNG(cfg.Seed, 0x5eed)
	evs := []Event{}
	var liveStatics []Event
	burstOctet := 0 // running third-octet cursor so bursts never collide
	for round := 0; round < cfg.Rounds; round++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			switch pickKind(rng, w, liveStatics) {
			case KindLinkDown:
				l := w.links[rng.Intn(len(w.links))]
				down := rng.Int63n(int64(100 * time.Millisecond))
				up := down + int64(200*time.Millisecond) + rng.Int63n(int64(300*time.Millisecond))
				evs = append(evs,
					Event{Round: round, At: down, Kind: KindLinkDown, A: l[0], B: l[1]},
					Event{Round: round, At: up, Kind: KindLinkUp, A: l[0], B: l[1]})
			case KindSessionReset:
				p := w.ibgp[rng.Intn(len(w.ibgp))]
				evs = append(evs, Event{
					Round: round, At: rng.Int63n(int64(200 * time.Millisecond)),
					Kind: KindSessionReset, A: p[0], B: p[1]})
			case KindConfigLP:
				t := w.lpTargets[rng.Intn(len(w.lpTargets))]
				evs = append(evs, Event{
					Round: round, At: rng.Int63n(int64(200 * time.Millisecond)),
					Kind: KindConfigLP, A: t[0], B: t[1], Value: uint32(10 + rng.Intn(190))})
			case KindStaticAdd:
				router := w.internals[rng.Intn(len(w.internals))]
				ev := Event{
					Round: round, At: rng.Int63n(int64(200 * time.Millisecond)),
					Kind: KindStaticAdd, A: router,
					Prefix:  fmt.Sprintf("198.18.%d.0/24", round%250),
					NextHop: w.staticNH[router],
				}
				evs = append(evs, ev)
				liveStatics = append(liveStatics, ev)
			case KindStaticDel:
				i := rng.Intn(len(liveStatics))
				add := liveStatics[i]
				liveStatics = append(liveStatics[:i], liveStatics[i+1:]...)
				evs = append(evs, Event{
					Round: round, At: rng.Int63n(int64(200 * time.Millisecond)),
					Kind: KindStaticDel, A: add.A, Prefix: add.Prefix})
			case KindLagDown:
				l := w.lagLinks[rng.Intn(len(w.lagLinks))]
				down := rng.Int63n(int64(100 * time.Millisecond))
				up := down + int64(200*time.Millisecond) + rng.Int63n(int64(300*time.Millisecond))
				evs = append(evs,
					Event{Round: round, At: down, Kind: KindLagDown, A: l[0], B: l[1]},
					Event{Round: round, At: up, Kind: KindLagUp, A: l[0], B: l[1]})
			case KindRRFlap:
				hub := w.rrHubs[rng.Intn(len(w.rrHubs))]
				evs = append(evs, Event{
					Round: round, At: rng.Int63n(int64(200 * time.Millisecond)),
					Kind: KindRRFlap, A: hub,
					Peers: append([]string(nil), w.rrClients[hub]...)})
			case KindPrefixBurst:
				origin := w.burstOrigins[rng.Intn(len(w.burstOrigins))]
				count := uint32(2 + rng.Intn(3))
				base := fmt.Sprintf("198.20.%d.0/24", burstOctet%250)
				burstOctet += int(count)
				at := rng.Int63n(int64(100 * time.Millisecond))
				withdraw := at + int64(200*time.Millisecond) + rng.Int63n(int64(300*time.Millisecond))
				evs = append(evs,
					Event{Round: round, At: at, Kind: KindPrefixBurst, A: origin, Prefix: base, Value: count},
					Event{Round: round, At: withdraw, Kind: KindPrefixWithdraw, A: origin, Prefix: base, Value: count})
			case KindEcmpStatic:
				router := w.ecmpRouters[rng.Intn(len(w.ecmpRouters))]
				peers := w.staticNHs[router]
				width := 1 + rng.Intn(len(peers))
				perm := rng.Perm(len(peers))[:width]
				hops := make([]string, 0, width)
				for _, ix := range perm {
					hops = append(hops, peers[ix])
				}
				ev := Event{
					Round: round, At: rng.Int63n(int64(200 * time.Millisecond)),
					Kind: KindEcmpStatic, A: router,
					Prefix:   ecmpStaticPrefixes[rng.Intn(len(ecmpStaticPrefixes))].String(),
					NextHops: hops,
				}
				evs = append(evs, ev)
				liveStatics = append(liveStatics, ev)
			}
		}
	}
	return evs
}

// ecmpStaticPrefixes are the destinations ECMP-static events install.
var ecmpStaticPrefixes = []netip.Prefix{
	netip.MustParsePrefix("198.19.0.0/24"), netip.MustParsePrefix("198.19.1.0/24"),
	netip.MustParsePrefix("198.19.2.0/24"), netip.MustParsePrefix("198.19.3.0/24"),
}

// pickKind draws the next event kind from the kinds the world supports.
func pickKind(rng *rand.Rand, w *world, liveStatics []Event) string {
	kinds := []string{KindLinkDown, KindStaticAdd}
	if len(w.ibgp) > 0 {
		kinds = append(kinds, KindSessionReset)
	}
	if len(w.lpTargets) > 0 {
		kinds = append(kinds, KindConfigLP)
	}
	if len(liveStatics) > 0 {
		kinds = append(kinds, KindStaticDel)
	}
	if len(w.lagLinks) > 0 {
		kinds = append(kinds, KindLagDown)
	}
	if len(w.ecmpRouters) > 0 {
		kinds = append(kinds, KindEcmpStatic)
	}
	// The reflector and burst pools are populated only by the isp-rr world,
	// so the classic shapes' kind list — and their seeded draws — are
	// byte-identical to before these kinds existed.
	if len(w.rrHubs) > 0 {
		kinds = append(kinds, KindRRFlap)
	}
	if len(w.burstOrigins) > 0 {
		kinds = append(kinds, KindPrefixBurst)
	}
	return kinds[rng.Intn(len(kinds))]
}

// burstPrefixes expands a burst event into its member /24s: count
// consecutive third octets starting at the base prefix's, wrapping at 250
// to match the generator's cursor arithmetic.
func burstPrefixes(base string, count uint32) []netip.Prefix {
	bp, err := netip.ParsePrefix(base)
	if err != nil || !bp.Addr().Is4() {
		return nil
	}
	a4 := bp.Addr().As4()
	out := make([]netip.Prefix, 0, count)
	for i := uint32(0); i < count; i++ {
		o := a4
		o[2] = byte((uint32(a4[2]) + i) % 250)
		out = append(out, netip.PrefixFrom(netip.AddrFrom4(o), bp.Bits()))
	}
	return out
}

// applyEvent performs one churn action immediately. Events made redundant
// by shrinking (a link already in the requested state, a missing static)
// are no-ops, never errors, so every schedule subset stays runnable.
func applyEvent(w *world, ev Event) {
	switch ev.Kind {
	case KindLinkDown, KindLagDown:
		_, _ = w.net.SetLinkUp(ev.A, ev.B, false)
	case KindLinkUp, KindLagUp:
		_, _ = w.net.SetLinkUp(ev.A, ev.B, true)
	case KindSessionReset:
		_ = w.net.ResetBGPSession(ev.A, ev.B)
	case KindRRFlap:
		for _, client := range ev.Peers {
			_ = w.net.ResetBGPSession(ev.A, client)
		}
	case KindPrefixBurst, KindPrefixWithdraw:
		prefixes := burstPrefixes(ev.Prefix, ev.Value)
		if len(prefixes) == 0 {
			return
		}
		verb := "advertise"
		if ev.Kind == KindPrefixWithdraw {
			verb = "withdraw"
		}
		_, _ = w.net.UpdateConfig(ev.A, fmt.Sprintf("%s burst %s x%d", verb, ev.Prefix, len(prefixes)),
			func(c *config.Router) {
				if c.BGP == nil {
					return
				}
				member := map[netip.Prefix]bool{}
				for _, p := range prefixes {
					member[p] = true
				}
				if ev.Kind == KindPrefixWithdraw {
					out := c.BGP.Networks[:0]
					for _, p := range c.BGP.Networks {
						if !member[p] {
							out = append(out, p)
						}
					}
					c.BGP.Networks = out
					return
				}
				for _, p := range prefixes {
					have := false
					for _, q := range c.BGP.Networks {
						if q == p {
							have = true
							break
						}
					}
					if !have {
						c.BGP.Networks = append(c.BGP.Networks, p)
					}
				}
			})
	case KindConfigLP:
		addr, err := netip.ParseAddr(ev.B)
		if err != nil {
			return
		}
		_, _ = w.net.UpdateConfig(ev.A, fmt.Sprintf("set lp %d on %s", ev.Value, ev.B), func(c *config.Router) {
			if c.BGP == nil {
				return
			}
			if nb := c.BGP.Neighbor(addr); nb != nil {
				nb.LocalPref = ev.Value
			}
		})
	case KindStaticAdd:
		p, err1 := netip.ParsePrefix(ev.Prefix)
		nh, err2 := netip.ParseAddr(ev.NextHop)
		if err1 != nil || err2 != nil {
			return
		}
		_, _ = w.net.UpdateConfig(ev.A, "add static "+ev.Prefix, func(c *config.Router) {
			for i := range c.Statics {
				if c.Statics[i].Prefix == p {
					c.Statics[i].NextHop = nh
					return
				}
			}
			c.Statics = append(c.Statics, config.StaticRoute{Prefix: p, NextHop: nh})
		})
	case KindEcmpStatic:
		p, err := netip.ParsePrefix(ev.Prefix)
		if err != nil {
			return
		}
		var hops []netip.Addr
		for _, s := range ev.NextHops {
			if a, err := netip.ParseAddr(s); err == nil {
				hops = append(hops, a)
			}
		}
		if len(hops) == 0 {
			return
		}
		_, _ = w.net.UpdateConfig(ev.A, fmt.Sprintf("ecmp static %s width %d", ev.Prefix, len(hops)),
			func(c *config.Router) {
				st := config.StaticRoute{Prefix: p, NextHop: hops[0], NextHops: hops}
				for i := range c.Statics {
					if c.Statics[i].Prefix == p {
						c.Statics[i] = st
						return
					}
				}
				c.Statics = append(c.Statics, st)
			})
	case KindStaticDel:
		p, err := netip.ParsePrefix(ev.Prefix)
		if err != nil {
			return
		}
		_, _ = w.net.UpdateConfig(ev.A, "del static "+ev.Prefix, func(c *config.Router) {
			out := c.Statics[:0]
			for _, st := range c.Statics {
				if st.Prefix != p {
					out = append(out, st)
				}
			}
			c.Statics = out
		})
	}
}
