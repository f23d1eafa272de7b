// Channel accounting: the cross-router rule. A session delivers its
// messages in the order they were sent, as the TCP (or the wire) under it
// does, so the i-th message a router receives from a peer is the i-th one
// the peer sent it — Chandy & Lamport's FIFO channels. A receive's send is
// its place on the channel, found without reading a timestamp, and it is
// prefix-stable: a cut keeps a prefix of every router's log, so a prefix
// of every channel, and no receive the cut keeps changes its send.

package hbr

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"

	"hbverify/internal/capture"
	"hbverify/internal/fault"
	"hbverify/internal/hbg"
	"hbverify/internal/route"
	"hbverify/internal/wire"
)

// channel carries one protocol's messages from one router to another
// through one epoch of the session between them.
type channel struct {
	from, to string
	proto    route.Protocol
	epoch    uint32
}

// side is one end's view of a session: the router whose log it is, the
// peer, and whether it is BGP's. An IGP adjacency is its link, and each end
// opens a new epoch on its own logged link-down naming the peer. A BGP
// session opens one only on its own logged session-down: a loopback iBGP
// session outlives a link failure, and a direct eBGP session that dies with
// its link logs a session-down of its own.
type side struct {
	router, peer string
	bgp          bool
}

// message is what a paired send and receive must agree on: the prefix (the
// LSA's Detail when there is none) and advert vs withdraw.
type message struct {
	prefix   netip.Prefix
	detail   string
	withdraw bool
}

func messageOf(io *capture.IO) message {
	m := message{withdraw: io.Type == capture.SendWithdraw || io.Type == capture.RecvWithdraw}
	if io.Prefix.IsValid() {
		m.prefix = io.Prefix
	} else {
		m.detail = io.Detail
	}
	return m
}

// pending is a queued send or receive under the handle its feeder gave it:
// a position in a view, or an event ID.
type pending struct {
	h   uint64
	msg message
}

// queue is one channel's unmatched side, oldest first: sends no receive has
// reached, or receives waiting for their sends, never both.
type queue struct {
	sends bool
	items []pending
}

// Channels is the channel table: every channel's unmatched side and every
// session side's epoch, as the events fed so far leave them.
type Channels struct {
	queues map[channel]*queue
	epochs map[side]uint32
	// desync counts unmatched messages a later one of the other side passed
	// over (feed) — a lost log line, a missed epoch. Whichever of the two
	// was a receive is left with no send, so a cut stays open on it.
	desync int
}

func newChannels() *Channels {
	return &Channels{queues: map[channel]*queue{}, epochs: map[side]uint32{}}
}

// feed advances the table past io, under handle h. A link or session going
// down opens the next epoch on its router's side; a send or receive pairs
// with the first message of its own key among the unmatched other side of
// its channel, or queues. A session reorders nothing, so an unmatched
// message passed over has lost its other half — a log line gone, a message
// lost with its link: each is a desync, and is dropped, so that one lost
// line costs one pair and no more. pair is called with the handles of each
// send and receive paired.
func (c *Channels) feed(io *capture.IO, h uint64, pair func(send, recv uint64)) {
	if io.Peer == "" {
		return
	}
	send := io.Type == capture.SendAdvert || io.Type == capture.SendWithdraw
	ch := channel{io.Peer, io.Router, io.Proto, c.epochs[side{io.Router, io.Peer, io.Proto == route.ProtoBGP}]}
	switch {
	case io.Type == capture.LinkDown || io.Type == capture.SessionDown:
		if !fault.On(fault.SkipChannelEpoch) {
			c.epochs[side{io.Router, io.Peer, io.Type == capture.SessionDown}]++
		}
		return
	case send:
		ch.from, ch.to = io.Router, io.Peer
	case io.Type != capture.RecvAdvert && io.Type != capture.RecvWithdraw:
		return
	}
	q := c.queue(ch)
	m := messageOf(io)
	for len(q.items) > 0 && q.sends != send {
		var o pending
		if !send && fault.On(fault.SwapSendMatch) {
			o, q.items = q.items[len(q.items)-1], q.items[:len(q.items)-1]
		} else {
			o, q.items = q.items[0], q.items[1:]
		}
		if o.msg == m {
			if send {
				pair(h, o.h)
			} else {
				pair(o.h, h)
			}
			return
		}
		c.desync++
	}
	q.sends = send
	q.items = append(q.items, pending{h, m})
}

// queue returns ch's queue, adding an empty one if it has none.
func (c *Channels) queue(ch channel) *queue {
	q := c.queues[ch]
	if q == nil {
		q = &queue{}
		c.queues[ch] = q
	}
	return q
}

// pairView runs a fresh table over v in order, the event at i under handle
// h(i), calling pair with the handles of each send and receive paired, and
// returns the table as v leaves it.
func pairView(v capture.View, h func(i int) uint64, pair func(send, recv uint64)) *Channels {
	c := newChannels()
	for i := 0; i < v.Len(); i++ {
		c.feed(v.At(i), h(i), pair)
	}
	return c
}

// pairEdges pairs v's messages on a fresh table keyed by event ID: each
// pair is a receive's one in-edge. It returns the edges and the table.
func pairEdges(v capture.View) ([]hbg.Edge, *Channels) {
	var edges []hbg.Edge
	c := pairView(v, func(i int) uint64 { return v.At(i).ID },
		func(s, r uint64) { edges = append(edges, hbg.Edge{From: s, To: r}) })
	return edges, c
}

// Pair gives every receive of v the send its place on its channel pairs it
// with: out[i] is the position in v of the send paired with the receive at
// i, -1 for none and for every other event. snapshot.ConsistentCut checks a
// cut against it.
func Pair(v capture.View) []int32 {
	var p Pairing
	return p.Extend(v)
}

// Pairing is Pair kept across a growing view: Extend feeds only the events
// past those it has fed, on the table they left. Pairing is prefix-stable in
// log order, so what it returns for a view is Pair of that view, except that
// a receive may name a send past a shorter view's end — one logged after it —
// which that view does not hold. The zero Pairing has fed nothing.
type Pairing struct {
	ch     *Channels
	sendOf []int32
}

// Extend feeds v's events past those already fed, which must be v's first
// ones, and returns the pairing of everything fed: Pair's answer, indexed
// by position in v.
func (p *Pairing) Extend(v capture.View) []int32 {
	if p.ch == nil {
		p.ch = newChannels()
	}
	pair := func(s, r uint64) { p.sendOf[r] = int32(s) }
	for i := len(p.sendOf); i < v.Len(); i++ {
		p.sendOf = append(p.sendOf, -1)
		p.ch.feed(v.At(i), uint64(i), pair)
	}
	return p.sendOf
}

// forget drops, from an ID-keyed table, every queued message below id and
// the queues left empty. The compaction floor trails the newest event by
// more than any delivery plus skew, so the other half of a message below it
// is logged already or never will be: a send whose receive line was lost,
// one to a peer that does not log (an external neighbour), a message left
// in an epoch its channel has closed.
func (c *Channels) forget(id uint64) {
	for ch, q := range c.queues {
		for len(q.items) > 0 && q.items[0].h < id {
			q.items = q.items[1:]
		}
		if len(q.items) == 0 {
			delete(c.queues, ch)
		}
	}
}

// AppendTo appends the table's encoding to b: its epochs, sorted by their
// encoded records, then its queued messages in handle order. Handles are
// unique and ascend along every queue, so reading the messages back in that
// order rebuilds each queue as it was.
func (c *Channels) AppendTo(b []byte) []byte {
	sides := make([]string, 0, len(c.epochs))
	for s, e := range c.epochs {
		rec := wire.AppendBool(wire.AppendString(wire.AppendString(nil, s.router), s.peer), s.bgp)
		sides = append(sides, string(binary.AppendUvarint(rec, uint64(e))))
	}
	slices.Sort(sides)
	b = binary.AppendUvarint(b, uint64(len(sides)))
	for _, s := range sides {
		b = append(b, s...)
	}
	type item struct {
		ch    channel
		sends bool
		p     pending
	}
	var items []item
	for ch, q := range c.queues {
		for _, p := range q.items {
			items = append(items, item{ch, q.sends, p})
		}
	}
	slices.SortFunc(items, func(x, y item) int { return cmp.Compare(x.p.h, y.p.h) })
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = binary.AppendUvarint(binary.AppendUvarint(wire.AppendString(wire.AppendString(b, it.ch.from), it.ch.to), uint64(it.ch.proto)), uint64(it.ch.epoch))
		b = wire.AppendPrefix(binary.AppendUvarint(wire.AppendBool(b, it.sends), it.p.h), it.p.msg.prefix)
		b = wire.AppendBool(wire.AppendString(b, it.p.msg.detail), it.p.msg.withdraw)
	}
	return b
}

// ReadChannels decodes a table AppendTo encoded; r reports any error.
func ReadChannels(r *wire.Reader) *Channels {
	c := newChannels()
	// A side is at least two name lengths, a flag and an epoch.
	for i := r.Count("channel side", 4); i > 0 && r.Err() == nil; i-- {
		s := side{router: r.Str(), peer: r.Str(), bgp: r.Bool()}
		c.epochs[s] = uint32(r.Uvarint())
	}
	// A queued message is at least its channel's two name lengths, protocol
	// and epoch, a flag, a handle, a prefix, a detail length and a flag.
	for i := r.Count("queued message", 9); i > 0 && r.Err() == nil; i-- {
		q := c.queue(channel{from: r.Str(), to: r.Str(), proto: route.Protocol(r.Uvarint()), epoch: uint32(r.Uvarint())})
		q.sends = r.Bool()
		p := pending{h: r.Uvarint()}
		p.msg.prefix, p.msg.detail, p.msg.withdraw = r.Prefix(), r.Str(), r.Bool()
		q.items = append(q.items, p)
	}
	return c
}
