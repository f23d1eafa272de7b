// Package dv is the distance-vector speaker core that RIP and EIGRP embed:
// the adjacency and local-origin tables, the record of each receive, and
// the per-neighbor send loop with split horizon and poison reverse.
//
// What tells the two protocols apart stays in their own packages: the
// route each one chooses, and the order of its I/Os, which the paper's
// rule matching (§4.1) depends on. RIP sends its triggered update before
// its FIB install; EIGRP installs in the FIB first and advertises from that
// step. The core serves both alike: the protocol tag and its infinity are
// data it records and compares against.
package dv

import (
	"net/netip"
	"slices"

	"hbverify/internal/capture"
	"hbverify/internal/route"
)

// Message is a single-prefix update carrying the sender's metric to the
// prefix (RIP's hop count, EIGRP's reported distance). A metric at the
// protocol's infinity poisons the prefix.
type Message struct {
	Prefix netip.Prefix
	Metric uint32
}

// Neighbor is an adjacency on an interface.
type Neighbor struct {
	Name  string
	Addr  netip.Addr
	Iface string
	Cost  uint32 // link cost toward the neighbor; EIGRP adds it, RIP counts hops
	Up    bool
}

// Env delivers a speaker's messages to the speaker of the same protocol
// across the link on ifname.
type Env interface {
	DeliverDV(proto route.Protocol, fromRouter, ifname string, msg Message, sendIO uint64)
}

// Speaker is the part of one router's distance-vector process that does
// not depend on the protocol.
type Speaker struct {
	name     string
	proto    route.Protocol
	infinity uint32
	rec      *capture.Recorder
	env      Env

	neighbors []*Neighbor // sorted by address, the order every send visits
	// Local holds the locally originated prefixes, masked.
	Local map[netip.Prefix]bool
}

// New builds the core of proto's speaker on router name.
func New(name string, proto route.Protocol, infinity uint32, rec *capture.Recorder, env Env) Speaker {
	return Speaker{
		name: name, proto: proto, infinity: infinity, rec: rec, env: env,
		Local: map[netip.Prefix]bool{},
	}
}

// Protocol returns the protocol the speaker runs.
func (s *Speaker) Protocol() route.Protocol { return s.proto }

// Record records io as one of the speaker's I/Os.
func (s *Speaker) Record(io capture.IO) capture.IO {
	io.Proto = s.proto
	return s.rec.Record(io)
}

func (s *Speaker) find(addr netip.Addr) (int, bool) {
	return slices.BinarySearchFunc(s.neighbors, addr, func(n *Neighbor, a netip.Addr) int {
		return n.Addr.Compare(a)
	})
}

// AddNeighbor registers an adjacency, replacing any at the same address.
func (s *Speaker) AddNeighbor(n Neighbor) {
	if i, found := s.find(n.Addr); found {
		s.neighbors[i] = &n
	} else {
		s.neighbors = slices.Insert(s.neighbors, i, &n)
	}
}

// Neighbor returns the adjacency at addr, or nil.
func (s *Speaker) Neighbor(addr netip.Addr) *Neighbor {
	if i, found := s.find(addr); found {
		return s.neighbors[i]
	}
	return nil
}

// Flip marks the neighbor at addr up or down and returns it. It returns
// nil, and changes nothing, when the neighbor is unknown or already so.
func (s *Speaker) Flip(addr netip.Addr, up bool) *Neighbor {
	n := s.Neighbor(addr)
	if n == nil || n.Up == up {
		return nil
	}
	n.Up = up
	return n
}

// Recv records msg's arrival from the neighbor at from, caused by the
// send sendIO: an advert, or a withdraw when msg carries the infinity. It
// returns the neighbor and the receive's ID, or nil, recording nothing,
// when the neighbor is unknown or down.
func (s *Speaker) Recv(from netip.Addr, msg Message, sendIO uint64) (*Neighbor, uint64) {
	n := s.Neighbor(from)
	if n == nil || !n.Up {
		return nil, 0
	}
	typ := capture.RecvAdvert
	if msg.Metric >= s.infinity {
		typ = capture.RecvWithdraw
	}
	io := s.Record(capture.IO{
		Type: typ, Prefix: msg.Prefix, NextHop: from,
		Peer: n.Name, PeerAddr: from, Causes: []uint64{sendIO},
	})
	return n, io.ID
}

// Send advertises p at metric to every up neighbor in address order,
// recording each send with causes. A metric at the infinity withdraws p,
// and so does split horizon with poison reverse toward from, the neighbor
// the route was learned from.
func (s *Speaker) Send(p netip.Prefix, metric uint32, from string, causes []uint64) {
	for _, n := range s.neighbors {
		if !n.Up {
			continue
		}
		msg := Message{Prefix: p, Metric: s.infinity}
		typ := capture.SendWithdraw
		if metric < s.infinity && n.Name != from {
			msg.Metric = metric
			typ = capture.SendAdvert
		}
		io := s.Record(capture.IO{
			Type: typ, Prefix: p, Peer: n.Name, PeerAddr: n.Addr, Causes: causes,
		})
		s.env.DeliverDV(s.proto, s.name, n.Iface, msg, io.ID)
	}
}
