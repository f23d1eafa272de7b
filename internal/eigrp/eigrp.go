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
	"net/netip"
	"slices"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/dv"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// Unreachable is the metric carried by poisoned updates.
const Unreachable = ^uint32(0)

// fibDelay is when FIB entries are installed (and then advertised) after a
// decision. Advertisements fire from the FIB step, so there is no separate
// advertisement delay.
const fibDelay = 2 * time.Millisecond

type selected struct {
	dist    uint32 // feasible distance
	nextHop netip.Addr
	from    string
}

// Instance is one router's EIGRP process.
type Instance struct {
	dv.Speaker
	sched *netsim.Scheduler
	fib   *fib.Table

	// topo holds each neighbor's reported distance to each prefix.
	topo map[netip.Prefix]map[netip.Addr]uint32
	sel  map[netip.Prefix]selected

	fibQ *netsim.Debounce[netip.Prefix]
}

// New builds an EIGRP instance.
func New(name string, rec *capture.Recorder, sched *netsim.Scheduler, fibTable *fib.Table, env dv.Env) *Instance {
	e := &Instance{
		Speaker: dv.New(name, route.ProtoEIGRP, Unreachable, rec, env),
		sched:   sched,
		fib:     fibTable,
		topo:    map[netip.Prefix]map[netip.Addr]uint32{},
		sel:     map[netip.Prefix]selected{},
	}
	e.fibQ = netsim.NewDebounce(sched, fibDelay, e.flushFIB)
	return e
}

// Originate injects a locally connected prefix at distance 0.
func (e *Instance) Originate(p netip.Prefix, cause ...uint64) {
	p = p.Masked()
	e.Local[p] = true
	e.runDUAL(p, cause)
}

// NeighborDown purges the neighbor's topology entries.
func (e *Instance) NeighborDown(addr netip.Addr, cause ...uint64) {
	if e.Flip(addr, false) == nil {
		return
	}
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
// after the FIB delay, one timer per prefix rather than through fibQ: the
// routes are already installed. Every local prefix is selected, at
// distance 0, so sel holds every route to advertise.
func (e *Instance) NeighborUp(addr netip.Addr, cause ...uint64) {
	if e.Flip(addr, true) == nil {
		return
	}
	prefixes := make([]netip.Prefix, 0, len(e.sel))
	for p := range e.sel {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, route.ComparePrefix)
	cs := append([]uint64(nil), cause...)
	for _, p := range prefixes {
		e.sched.After(fibDelay, func() { e.advertise(p, cs) })
	}
}

// HandleUpdate processes a neighbor's triggered update.
func (e *Instance) HandleUpdate(from netip.Addr, msg dv.Message, sendIO uint64) {
	n, recv := e.Recv(from, msg, sendIO)
	if n == nil {
		return
	}
	p := msg.Prefix.Masked()
	if msg.Metric == Unreachable {
		if byN := e.topo[p]; byN != nil {
			delete(byN, from)
		}
	} else {
		if e.topo[p] == nil {
			e.topo[p] = map[netip.Addr]uint32{}
		}
		e.topo[p][from] = msg.Metric
	}
	e.runDUAL(p, []uint64{recv})
}

// runDUAL reselects the successor for p under the feasibility condition.
func (e *Instance) runDUAL(p netip.Prefix, causes []uint64) {
	cur, have := e.sel[p]
	var best *selected
	if e.Local[p] {
		best = &selected{dist: 0}
	} else {
		// Feasibility: neighbor's reported distance must be strictly below
		// our current feasible distance (when we have one). DUAL-lite: if
		// nothing is feasible, fall back to the best neighbor ignoring the
		// old FD (a stand-in for the active/query process).
		var fallback *selected
		addrs := make([]netip.Addr, 0, len(e.topo[p]))
		for a := range e.topo[p] {
			addrs = append(addrs, a)
		}
		slices.SortFunc(addrs, netip.Addr.Compare)
		for _, a := range addrs {
			n := e.Neighbor(a)
			if n == nil || !n.Up {
				continue
			}
			reported := e.topo[p][a]
			cand := &selected{dist: reported + n.Cost, nextHop: a, from: n.Name}
			if fallback == nil || cand.dist < fallback.dist {
				fallback = cand
			}
			if (!have || reported < cur.dist) && (best == nil || cand.dist < best.dist) {
				best = cand
			}
		}
		if best == nil {
			best = fallback
		}
	}
	switch {
	case best == nil && have:
		delete(e.sel, p)
		io := e.Record(capture.IO{
			Type: capture.RIBRemove, Prefix: p, NextHop: cur.nextHop, Causes: causes,
		})
		e.fibQ.Add(p, []uint64{io.ID})
	case best != nil && (!have || *best != cur):
		e.sel[p] = *best
		io := e.Record(capture.IO{
			Type: capture.RIBInstall, Prefix: p, NextHop: best.nextHop, Causes: causes,
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

// advertise sends p's reported distance, or its withdraw, to every up
// neighbor, poisoned toward the successor.
func (e *Instance) advertise(p netip.Prefix, causes []uint64) {
	sel, have := e.sel[p]
	if !have {
		sel.dist = Unreachable
	}
	e.Send(p, sel.dist, sel.from, causes)
}
