// Package eigrp implements a DUAL-lite distance-vector protocol in the
// style of EIGRP: per-neighbor topology tables carrying reported distances,
// the feasibility condition (a neighbor is a feasible successor only if its
// reported distance is below our current feasible distance), and composite
// link-cost metrics.
//
// EIGRP's distinguishing I/O ordering — called out explicitly in §4.1 of
// the paper — is that a router advertises a route only *after* installing
// it in the FIB: [R install P in FIB] → [R send EIGRP advertisement for P].
// The instance enforces that ordering by emitting its triggered updates
// from the FIB-flush step.
package eigrp

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

// Unreachable is the metric carried by poisoned updates.
const Unreachable = ^uint32(0)

// Message is a single-prefix EIGRP update carrying the sender's reported
// distance (its own cost to the prefix).
type Message struct {
	Prefix   netip.Prefix
	Reported uint32 // Unreachable poisons
}

func (m Message) String() string {
	if m.Reported == Unreachable {
		return fmt.Sprintf("EIGRP %s unreachable", m.Prefix)
	}
	return fmt.Sprintf("EIGRP %s rd=%d", m.Prefix, m.Reported)
}

// Neighbor is an EIGRP adjacency.
type Neighbor struct {
	Name      string
	Addr      netip.Addr
	LocalAddr netip.Addr
	Iface     string
	Cost      uint32 // link cost toward this neighbor
	Up        bool
}

// Env delivers messages to adjacent instances.
type Env interface {
	DeliverEIGRP(fromRouter, ifname string, msg Message, sendIO uint64)
}

// fibDelay is when FIB entries are installed (and then advertised) after a
// decision. Advertisements fire from the FIB step, so there is no separate
// advertisement delay.
const fibDelay = 2 * time.Millisecond

type topoEntry struct {
	reported uint32 // neighbor's reported distance
}

type selected struct {
	dist    uint32 // feasible distance
	nextHop netip.Addr
	from    string
}

// Instance is one router's EIGRP process.
type Instance struct {
	name  string
	rec   *capture.Recorder
	sched *netsim.Scheduler
	fib   *fib.Table
	env   Env

	neighbors map[netip.Addr]*Neighbor
	local     map[netip.Prefix]bool
	topo      map[netip.Prefix]map[netip.Addr]topoEntry
	sel       map[netip.Prefix]selected

	fibQ *netsim.Debounce[netip.Prefix]
}

// New builds an EIGRP instance.
func New(name string, rec *capture.Recorder, sched *netsim.Scheduler, fibTable *fib.Table, env Env) *Instance {
	e := &Instance{
		name: name, rec: rec, sched: sched, fib: fibTable, env: env,
		neighbors: map[netip.Addr]*Neighbor{},
		local:     map[netip.Prefix]bool{},
		topo:      map[netip.Prefix]map[netip.Addr]topoEntry{},
		sel:       map[netip.Prefix]selected{},
	}
	e.fibQ = netsim.NewDebounce(sched, fibDelay, e.flushFIB)
	return e
}

// AddNeighbor registers an adjacency.
func (e *Instance) AddNeighbor(n Neighbor) *Neighbor {
	cp := n
	e.neighbors[n.Addr] = &cp
	return &cp
}

// Originate injects a locally connected prefix at distance 0.
func (e *Instance) Originate(p netip.Prefix, cause ...uint64) {
	p = p.Masked()
	e.local[p] = true
	e.runDUAL(p, cause)
}

// NeighborDown purges the neighbor's topology entries.
func (e *Instance) NeighborDown(addr netip.Addr, cause ...uint64) {
	n := e.neighbors[addr]
	if n == nil || !n.Up {
		return
	}
	n.Up = false
	var affected []netip.Prefix
	for p, byN := range e.topo {
		if _, ok := byN[addr]; ok {
			delete(byN, addr)
			affected = append(affected, p)
		}
	}
	slices.SortFunc(affected, route.ComparePrefix)
	for _, p := range affected {
		e.runDUAL(p, cause)
	}
}

// NeighborUp restores the adjacency after a link recovery and schedules a
// full re-advertisement, so the revived neighbor relearns our routes. The
// advertisement honours EIGRP's FIB-before-advertise ordering by firing
// after the FIB delay.
func (e *Instance) NeighborUp(addr netip.Addr, cause ...uint64) {
	n := e.neighbors[addr]
	if n == nil || n.Up {
		return
	}
	n.Up = true
	seen := map[netip.Prefix]bool{}
	for p := range e.sel {
		seen[p] = true
	}
	for p := range e.local {
		seen[p] = true
	}
	prefixes := make([]netip.Prefix, 0, len(seen))
	for p := range seen {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, route.ComparePrefix)
	cs := append([]uint64(nil), cause...)
	for _, p := range prefixes {
		p := p
		e.sched.After(fibDelay, func() { e.advertise(p, cs) })
	}
}

// HandleUpdate processes a neighbor's triggered update.
func (e *Instance) HandleUpdate(from netip.Addr, msg Message, sendIO uint64) {
	n := e.neighbors[from]
	if n == nil || !n.Up {
		return
	}
	typ := capture.RecvAdvert
	if msg.Reported == Unreachable {
		typ = capture.RecvWithdraw
	}
	recv := e.rec.Record(capture.IO{
		Type: typ, Proto: route.ProtoEIGRP, Prefix: msg.Prefix, NextHop: from,
		Peer: n.Name, PeerAddr: from, Causes: []uint64{sendIO},
	})
	p := msg.Prefix.Masked()
	if msg.Reported == Unreachable {
		if byN := e.topo[p]; byN != nil {
			delete(byN, from)
		}
	} else {
		if e.topo[p] == nil {
			e.topo[p] = map[netip.Addr]topoEntry{}
		}
		e.topo[p][from] = topoEntry{reported: msg.Reported}
	}
	e.runDUAL(p, []uint64{recv.ID})
}

// runDUAL reselects the successor for p under the feasibility condition.
func (e *Instance) runDUAL(p netip.Prefix, causes []uint64) {
	cur, have := e.sel[p]
	var best *selected
	if e.local[p] {
		best = &selected{dist: 0}
	} else {
		// Feasibility: neighbor's reported distance must be strictly below
		// our current feasible distance (when we have one).
		fd := uint32(Unreachable)
		if have {
			fd = cur.dist
		}
		addrs := make([]netip.Addr, 0, len(e.topo[p]))
		for a := range e.topo[p] {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
		for _, a := range addrs {
			n := e.neighbors[a]
			if n == nil || !n.Up {
				continue
			}
			te := e.topo[p][a]
			if have && te.reported >= fd {
				continue // fails the feasibility condition
			}
			total := te.reported + n.Cost
			if best == nil || total < best.dist {
				best = &selected{dist: total, nextHop: a, from: n.Name}
			}
		}
		// DUAL-lite: if nothing is feasible, fall back to a full
		// recomputation ignoring the old FD (a stand-in for the
		// active/query process).
		if best == nil {
			for _, a := range addrs {
				n := e.neighbors[a]
				if n == nil || !n.Up {
					continue
				}
				te := e.topo[p][a]
				total := te.reported + n.Cost
				if best == nil || total < best.dist {
					best = &selected{dist: total, nextHop: a, from: n.Name}
				}
			}
		}
	}
	switch {
	case best == nil && have:
		delete(e.sel, p)
		io := e.rec.Record(capture.IO{
			Type: capture.RIBRemove, Proto: route.ProtoEIGRP, Prefix: p,
			NextHop: cur.nextHop, Causes: causes,
		})
		e.fibQ.Add(p, []uint64{io.ID})
	case best != nil && (!have || *best != cur):
		e.sel[p] = *best
		io := e.rec.Record(capture.IO{
			Type: capture.RIBInstall, Proto: route.ProtoEIGRP, Prefix: p,
			NextHop: best.nextHop, Causes: causes,
		})
		e.fibQ.Add(p, []uint64{io.ID})
	}
}

// flushFIB installs or removes the FIB entry and then — honouring EIGRP's
// FIB-before-advertise ordering — emits triggered updates whose ground-truth
// cause is the FIB event itself.
func (e *Instance) flushFIB(p netip.Prefix, causes []uint64) {
	sel, have := e.sel[p]

	var fibIO capture.IO
	var changed bool
	if !have {
		fibIO, changed = e.fib.Withdraw(route.ProtoEIGRP, p, causes...)
	} else if sel.nextHop.IsValid() {
		fibIO, changed = e.fib.Offer(route.Route{
			Prefix: p, NextHop: sel.nextHop, Proto: route.ProtoEIGRP, Metric: sel.dist,
		}, causes...)
	} else {
		// Locally originated: connected route covers the FIB; EIGRP itself
		// installs nothing but still advertises.
		fibIO, changed = e.fib.Withdraw(route.ProtoEIGRP, p, causes...)
	}

	advCauses := causes
	if changed {
		advCauses = []uint64{fibIO.ID}
	}
	e.advertise(p, advCauses)
}

func (e *Instance) advertise(p netip.Prefix, causes []uint64) {
	sel, have := e.sel[p]
	addrs := make([]netip.Addr, 0, len(e.neighbors))
	for a := range e.neighbors {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
	for _, a := range addrs {
		n := e.neighbors[a]
		if !n.Up {
			continue
		}
		msg := Message{Prefix: p, Reported: Unreachable}
		typ := capture.SendWithdraw
		if have && sel.from != n.Name {
			msg.Reported = sel.dist
			typ = capture.SendAdvert
		}
		io := e.rec.Record(capture.IO{
			Type: typ, Proto: route.ProtoEIGRP, Prefix: p,
			Peer: n.Name, PeerAddr: n.Addr, Causes: causes,
		})
		e.env.DeliverEIGRP(e.name, n.Iface, msg, io.ID)
	}
}
