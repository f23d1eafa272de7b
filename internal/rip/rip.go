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
	"net/netip"
	"slices"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/dv"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// Infinity is the RIP unreachable metric.
const Infinity = 16

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
	dv.Speaker
	fib   *fib.Table
	table map[netip.Prefix]entry

	advQ *netsim.Debounce[netip.Prefix]
	fibQ *netsim.Debounce[netip.Prefix]
}

// New builds a RIP instance.
func New(name string, rec *capture.Recorder, sched *netsim.Scheduler, fibTable *fib.Table, env dv.Env) *Instance {
	r := &Instance{
		Speaker: dv.New(name, route.ProtoRIP, Infinity, rec, env),
		fib:     fibTable,
		table:   map[netip.Prefix]entry{},
	}
	r.advQ = netsim.NewDebounce(sched, advertDelay, r.flushAdvert)
	r.fibQ = netsim.NewDebounce(sched, fibDelay, r.flushFIB)
	return r
}

// Originate injects a locally connected prefix at metric 1.
func (r *Instance) Originate(p netip.Prefix, cause ...uint64) {
	p = p.Masked()
	r.Local[p] = true
	r.update(p, entry{metric: 1, from: ""}, cause)
}

// NeighborDown purges routes learned from the neighbor (link failure).
func (r *Instance) NeighborDown(addr netip.Addr, cause ...uint64) {
	n := r.Flip(addr, false)
	if n == nil {
		return
	}
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
	if r.Flip(addr, true) == nil {
		return
	}
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
func (r *Instance) HandleUpdate(from netip.Addr, msg dv.Message, sendIO uint64) {
	n, recv := r.Recv(from, msg, sendIO)
	if n == nil || r.Local[msg.Prefix.Masked()] {
		return // our own connected prefix always wins
	}
	metric := min(msg.Metric+1, Infinity)
	cur, have := r.table[msg.Prefix.Masked()]
	switch {
	case metric >= Infinity:
		// Poison: only act if it came from our current next hop.
		if have && cur.from == n.Name {
			r.remove(msg.Prefix.Masked(), []uint64{recv})
		}
	case !have || metric < cur.metric || cur.from == n.Name:
		r.update(msg.Prefix.Masked(), entry{metric: metric, nextHop: from, from: n.Name}, []uint64{recv})
	}
}

func (r *Instance) update(p netip.Prefix, e entry, causes []uint64) {
	cur, have := r.table[p]
	if have && cur == e {
		return
	}
	r.table[p] = e
	io := r.Record(capture.IO{
		Type: capture.RIBInstall, Prefix: p, NextHop: e.nextHop, Causes: causes,
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
	io := r.Record(capture.IO{
		Type: capture.RIBRemove, Prefix: p, NextHop: cur.nextHop, Causes: causes,
	})
	r.advQ.Add(p, []uint64{io.ID})
	r.fibQ.Add(p, []uint64{io.ID})
}

// flushAdvert sends p's triggered update, before flushFIB installs it.
// Routes learned from a neighbor go back to it poisoned (metric 16).
func (r *Instance) flushAdvert(p netip.Prefix, causes []uint64) {
	e, have := r.table[p]
	if !have {
		e.metric = Infinity
	}
	r.Send(p, e.metric, e.from, causes)
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
