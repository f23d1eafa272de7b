// Package rip implements a RIP-style distance-vector protocol: hop-count
// metric, infinity at 16, split horizon with poison reverse, and triggered
// per-prefix updates.
//
// RIP's I/O ordering differs from BGP's and EIGRP's in a way the paper's
// rule-matching strategy must capture: a RIP router sends its triggered
// update right after the RIB changes, possibly *before* the FIB install
// completes. The instance therefore uses an advertisement delay shorter
// than its FIB delay.
package rip

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// Infinity is the RIP unreachable metric.
const Infinity = 16

// Message is a single-prefix triggered update.
type Message struct {
	Prefix netip.Prefix
	Metric uint32 // hop count as seen by the sender; Infinity poisons
}

func (m Message) String() string { return fmt.Sprintf("RIP %s metric=%d", m.Prefix, m.Metric) }

// Neighbor is a RIP adjacency on an interface.
type Neighbor struct {
	Name      string
	Addr      netip.Addr
	LocalAddr netip.Addr
	Iface     string
	Up        bool
}

// Env delivers messages to adjacent instances.
type Env interface {
	DeliverRIP(fromRouter, ifname string, msg Message, sendIO uint64)
}

// Processing delays: the instance sends at 1ms and installs the FIB at
// 3ms. advertDelay < fibDelay reproduces RIP's send-before-FIB behaviour.
const (
	advertDelay = time.Millisecond
	fibDelay    = 3 * time.Millisecond
)

type entry struct {
	metric  uint32 // our cost (hops)
	nextHop netip.Addr
	from    string // neighbor name, "" for local
}

// Instance is one router's RIP process.
type Instance struct {
	name string
	rec  *capture.Recorder
	fib  *fib.Table
	env  Env

	neighbors map[netip.Addr]*Neighbor
	local     map[netip.Prefix]bool
	table     map[netip.Prefix]entry

	advQ *netsim.Debounce[netip.Prefix]
	fibQ *netsim.Debounce[netip.Prefix]
}

// New builds a RIP instance.
func New(name string, rec *capture.Recorder, sched *netsim.Scheduler, fibTable *fib.Table, env Env) *Instance {
	r := &Instance{
		name: name, rec: rec, fib: fibTable, env: env,
		neighbors: map[netip.Addr]*Neighbor{},
		local:     map[netip.Prefix]bool{},
		table:     map[netip.Prefix]entry{},
	}
	r.advQ = netsim.NewDebounce(sched, advertDelay, r.flushAdvert)
	r.fibQ = netsim.NewDebounce(sched, fibDelay, r.flushFIB)
	return r
}

// AddNeighbor registers an adjacency.
func (r *Instance) AddNeighbor(n Neighbor) *Neighbor {
	cp := n
	r.neighbors[n.Addr] = &cp
	return &cp
}

// Originate injects a locally connected prefix at metric 1.
func (r *Instance) Originate(p netip.Prefix, cause ...uint64) {
	p = p.Masked()
	r.local[p] = true
	r.update(p, entry{metric: 1, from: ""}, cause)
}

// NeighborDown purges routes learned from the neighbor (link failure).
func (r *Instance) NeighborDown(addr netip.Addr, cause ...uint64) {
	n := r.neighbors[addr]
	if n == nil || !n.Up {
		return
	}
	n.Up = false
	var affected []netip.Prefix
	for p, e := range r.table {
		if e.from == n.Name {
			affected = append(affected, p)
		}
	}
	slices.SortFunc(affected, route.ComparePrefix)
	for _, p := range affected {
		r.remove(p, cause)
	}
}

// NeighborUp restores the adjacency after a link recovery and schedules
// triggered updates for the full table, so the revived neighbor relearns
// our routes (and, symmetrically, re-advertises its own).
func (r *Instance) NeighborUp(addr netip.Addr, cause ...uint64) {
	n := r.neighbors[addr]
	if n == nil || n.Up {
		return
	}
	n.Up = true
	var prefixes []netip.Prefix
	for p := range r.table {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, route.ComparePrefix)
	for _, p := range prefixes {
		r.advQ.Add(p, cause)
	}
}

// HandleUpdate processes a triggered update from a neighbor.
func (r *Instance) HandleUpdate(from netip.Addr, msg Message, sendIO uint64) {
	n := r.neighbors[from]
	if n == nil || !n.Up {
		return
	}
	typ := capture.RecvAdvert
	if msg.Metric >= Infinity {
		typ = capture.RecvWithdraw
	}
	recv := r.rec.Record(capture.IO{
		Type: typ, Proto: route.ProtoRIP, Prefix: msg.Prefix, NextHop: from,
		Peer: n.Name, PeerAddr: from, Causes: []uint64{sendIO},
	})
	if r.local[msg.Prefix.Masked()] {
		return // our own connected prefix always wins
	}
	metric := msg.Metric + 1
	if metric > Infinity {
		metric = Infinity
	}
	cur, have := r.table[msg.Prefix.Masked()]
	switch {
	case metric >= Infinity:
		// Poison: only act if it came from our current next hop.
		if have && cur.from == n.Name {
			r.remove(msg.Prefix.Masked(), []uint64{recv.ID})
		}
	case !have || metric < cur.metric || cur.from == n.Name:
		r.update(msg.Prefix.Masked(), entry{metric: metric, nextHop: from, from: n.Name}, []uint64{recv.ID})
	}
}

func (r *Instance) update(p netip.Prefix, e entry, causes []uint64) {
	cur, have := r.table[p]
	if have && cur == e {
		return
	}
	r.table[p] = e
	io := r.rec.Record(capture.IO{
		Type: capture.RIBInstall, Proto: route.ProtoRIP, Prefix: p,
		NextHop: e.nextHop, Causes: causes,
	})
	r.advQ.Add(p, []uint64{io.ID})
	r.fibQ.Add(p, []uint64{io.ID})
}

func (r *Instance) remove(p netip.Prefix, causes []uint64) {
	cur, have := r.table[p]
	if !have {
		return
	}
	delete(r.table, p)
	io := r.rec.Record(capture.IO{
		Type: capture.RIBRemove, Proto: route.ProtoRIP, Prefix: p,
		NextHop: cur.nextHop, Causes: causes,
	})
	r.advQ.Add(p, []uint64{io.ID})
	r.fibQ.Add(p, []uint64{io.ID})
}

func (r *Instance) flushAdvert(p netip.Prefix, causes []uint64) {
	e, have := r.table[p]
	addrs := make([]netip.Addr, 0, len(r.neighbors))
	for a := range r.neighbors {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
	for _, a := range addrs {
		n := r.neighbors[a]
		if !n.Up {
			continue
		}
		msg := Message{Prefix: p, Metric: Infinity}
		typ := capture.SendWithdraw
		if have && e.from != n.Name {
			msg.Metric = e.metric
			typ = capture.SendAdvert
		}
		// Split horizon with poison reverse: routes learned from n are
		// advertised back as unreachable (metric 16).
		io := r.rec.Record(capture.IO{
			Type: typ, Proto: route.ProtoRIP, Prefix: p,
			Peer: n.Name, PeerAddr: n.Addr, Causes: causes,
		})
		r.env.DeliverRIP(r.name, n.Iface, msg, io.ID)
	}
}

func (r *Instance) flushFIB(p netip.Prefix, causes []uint64) {
	e, have := r.table[p]
	if !have || !e.nextHop.IsValid() {
		r.fib.Withdraw(route.ProtoRIP, p, causes...)
		return
	}
	r.fib.Offer(route.Route{
		Prefix: p, NextHop: e.nextHop, Proto: route.ProtoRIP, Metric: e.metric,
	}, causes...)
}
