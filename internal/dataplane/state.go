package dataplane

import (
	"net/netip"
	"slices"
	"strings"
	"sync/atomic"

	"hbverify/internal/fib"
	"hbverify/internal/topology"
	"hbverify/internal/trie"
)

// State is one router's forwarding state: everything the router knows when
// it forwards a packet, and all that StepOf reads. Its table half is a
// fib.Reader: a live *fib.Table, read under its own lock, or a Frozen
// router's trie. It has two implementations: a router of the live network
// (Live), read where it lives, and a Frozen router, held by value.
type State interface {
	fib.Reader
	Loopback() netip.Addr
	// Ifaces lists the router's interfaces sorted by name, with their link
	// state. The slice is shared: callers must not write it.
	Ifaces() []Iface
	// frozen copies the state into a Frozen router that shares nothing
	// with it.
	frozen() *Frozen
}

// Forwarding is a network's forwarding state, router by router: the live
// network (Live) or a snapshot (Snapshot). The walker, the fleet and the
// local-check labels all read one, whichever produced it.
type Forwarding interface {
	// Routers lists the routers held, sorted. The slice is shared.
	Routers() []string
	// State returns router's state, or nil for a router not held.
	State(router string) State
	// over returns the forwarding state a walker on topo reads.
	over(topo *topology.Topology) Forwarding
}

// Expand is router's forwarding expansion for dst in fwd: StepOf over its
// state. A router fwd does not hold is a stuck branch.
func Expand(fwd Forwarding, router string, dst netip.Addr) Expansion {
	s := fwd.State(router)
	if s == nil {
		return Expansion{Stuck: true}
	}
	return StepOf(s, dst).Expansion
}

// Live is forwarding state read where it lives: each router's FIB in
// place, and its loopback and interfaces from the topology as they are when
// read — the running network's tables (NewLive), or FIB tries a caller
// keeps (SnapshotView). A router's interfaces are kept until the
// topology's generation moves, so reading them costs a walk no allocation.
type Live struct {
	routerSet[*liveState]
	topo *topology.Topology // nil until a walker binds a SnapshotView
}

// NewLive returns the live state of topo's routers, each reading its
// table in tables; a router without one has an empty FIB.
func NewLive(topo *topology.Topology, tables map[string]*fib.Table) *Live {
	return bindLive(topo, func(router string) fib.Reader {
		if t := tables[router]; t != nil {
			return t
		}
		return nil
	})
}

// SnapshotView returns the live state of caller-kept per-router FIB tries,
// read in place. A walker built on it gives every router of its topology
// the loopback and the interfaces the topology has when walked; a router
// without a trie has an empty FIB. Only the benchmark module (bench/)
// calls it; ROADMAP item 6 deletes it for a Snapshot.
func SnapshotView(tries map[string]*trie.Trie[fib.Entry]) *Live {
	l := &Live{}
	for name, t := range tries {
		l.add(name, &liveState{Reader: NewFrozen(netip.Addr{}, nil, t)})
	}
	return l
}

// bindLive returns the live state of topo's routers, each reading the FIB
// fibOf gives it, or an empty one for nil.
func bindLive(topo *topology.Topology, fibOf func(router string) fib.Reader) *Live {
	l := &Live{topo: topo}
	for _, r := range topo.Routers() {
		f := fibOf(r.Name)
		if f == nil {
			f = NewFrozen(netip.Addr{}, nil, nil)
		}
		l.add(r.Name, &liveState{Reader: f, topo: topo, r: r})
	}
	return l
}

func (l *Live) over(topo *topology.Topology) Forwarding {
	if l.topo != nil {
		return l
	}
	return bindLive(topo, func(router string) fib.Reader {
		if s, ok := l.states[router]; ok {
			return s.Reader
		}
		return nil
	})
}

// routerSet is a forwarding state's routers: their names, sorted, and each
// one's state.
type routerSet[S State] struct {
	routers []string
	states  map[string]S
}

// Routers implements Forwarding.
func (rs *routerSet[S]) Routers() []string { return rs.routers }

// State implements Forwarding.
func (rs *routerSet[S]) State(router string) State {
	if s, ok := rs.states[router]; ok {
		return s
	}
	return nil
}

func (rs *routerSet[S]) add(router string, s S) {
	if rs.states == nil {
		rs.states = map[string]S{}
	}
	k, _ := slices.BinarySearch(rs.routers, router)
	rs.routers = slices.Insert(rs.routers, k, router)
	rs.states[router] = s
}

// liveState is one router read where it lives: its FIB, and its
// interfaces as of one topology generation. A SnapshotView's router has no
// topology until a walker binds one.
type liveState struct {
	fib.Reader
	topo *topology.Topology
	r    *topology.Router
	cur  atomic.Pointer[liveIfaces]
}

type liveIfaces struct {
	gen  uint64
	list []Iface
}

func (s *liveState) Loopback() netip.Addr {
	if s.r == nil {
		return netip.Addr{}
	}
	return s.r.Loopback
}

// Ifaces reuses the list until the topology's generation moves. The
// generation is read before the interfaces are, so a change racing a
// rebuild leaves the list stamped stale.
func (s *liveState) Ifaces() []Iface {
	if s.r == nil {
		return nil
	}
	gen := s.topo.Generation()
	if c := s.cur.Load(); c != nil && c.gen == gen {
		return c.list
	}
	c := &liveIfaces{gen: gen, list: ifacesOf(s.r, false)}
	s.cur.Store(c)
	return c.list
}

func (s *liveState) frozen() *Frozen {
	t := trie.New[fib.Entry]()
	s.Walk(func(p netip.Prefix, e fib.Entry) bool {
		_ = t.Insert(p, e)
		return true
	})
	return &Frozen{lo: s.Loopback(), ifaces: slices.Clone(s.Ifaces()), fib: t}
}

// ifacesOf lists r's interfaces sorted by name, with the link state they
// have now, or every one up when asBuilt.
func ifacesOf(r *topology.Router, asBuilt bool) []Iface {
	tis := r.Interfaces()
	out := make([]Iface, len(tis))
	for k, i := range tis {
		out[k] = Iface{Name: i.Name, Addr: i.Addr, Prefix: i.Prefix, Stub: i.Link == nil, Up: true}
		if i.Link != nil {
			out[k].Up = asBuilt || i.Link.Up()
			out[k].PeerAddr = i.Peer().Addr
			out[k].PeerName = i.Peer().Router
		}
	}
	return out
}

// Frozen is one router's forwarding state held by value: a FIB trie, read
// in place, and interfaces fixed when it was made or set since. A snapshot
// is made of these, and a fleet node's view of itself is one.
type Frozen struct {
	lo     netip.Addr
	ifaces []Iface
	fib    *trie.Trie[fib.Entry]
}

// NewFrozen returns a router with loopback lo, the interfaces ifaces
// (sorted by name), and t as its FIB, read in place; a nil t is an empty
// FIB of its own.
func NewFrozen(lo netip.Addr, ifaces []Iface, t *trie.Trie[fib.Entry]) *Frozen {
	if t == nil {
		t = trie.New[fib.Entry]()
	}
	return &Frozen{lo: lo, ifaces: ifaces, fib: t}
}

func (s *Frozen) Lookup(dst netip.Addr) (fib.Entry, bool) {
	e, _, ok := s.fib.Lookup(dst)
	return e, ok
}

func (s *Frozen) Exact(p netip.Prefix) (fib.Entry, bool) { return s.fib.Exact(p) }

func (s *Frozen) Walk(fn func(netip.Prefix, fib.Entry) bool) { s.fib.Walk(fn) }

func (s *Frozen) Loopback() netip.Addr { return s.lo }

func (s *Frozen) Ifaces() []Iface { return s.ifaces }

func (s *Frozen) frozen() *Frozen {
	return &Frozen{lo: s.lo, ifaces: slices.Clone(s.ifaces), fib: s.fib.Clone()}
}

// Install adds e, replacing any entry for its prefix.
func (s *Frozen) Install(e fib.Entry) { _ = s.fib.Insert(e.Prefix, e) }

// Remove deletes the entry for p, if any.
func (s *Frozen) Remove(p netip.Prefix) { s.fib.Delete(p) }

// SetIfaces replaces the interfaces with ifaces, sorted by name, which s
// keeps.
func (s *Frozen) SetIfaces(ifaces []Iface) { s.ifaces = ifaces }

// SetLinkUp sets the link state of the interface named name; a stub or an
// interface s lacks is left as it is.
func (s *Frozen) SetLinkUp(name string, up bool) {
	if k, ok := slices.BinarySearchFunc(s.ifaces, name, func(i Iface, n string) int {
		return strings.Compare(i.Name, n)
	}); ok && !s.ifaces[k].Stub {
		s.ifaces[k].Up = up
	}
}

// Snapshot is a network's forwarding state held by value, router by router
// (Frozen): a replay of the log under a cut (NewSnapshot, then
// snapshot.Replay), or a copy of another forwarding state (Freeze).
type Snapshot struct{ routerSet[*Frozen] }

// NewSnapshot returns topo's routers as built, before any event: each with
// its loopback, an empty FIB, and every interface up. A link built down
// logs its LinkDown when the network starts, so a replay of the log from
// here folds it in like any other flip. A nil topo gives an empty
// snapshot.
func NewSnapshot(topo *topology.Topology) *Snapshot {
	s := &Snapshot{}
	if topo != nil {
		for _, r := range topo.Routers() {
			s.add(r.Name, NewFrozen(r.Loopback, ifacesOf(r, true), nil))
		}
	}
	return s
}

// Freeze copies every router of fwd into a snapshot that shares nothing
// with it.
func Freeze(fwd Forwarding) *Snapshot {
	s := &Snapshot{}
	for _, r := range fwd.Routers() {
		s.add(r, fwd.State(r).frozen())
	}
	return s
}

// Router returns router's state, adding one with no interfaces and an
// empty FIB when s holds none.
func (s *Snapshot) Router(router string) *Frozen {
	st, ok := s.states[router]
	if !ok {
		st = NewFrozen(netip.Addr{}, nil, nil)
		s.add(router, st)
	}
	return st
}

// FIBs returns each router's FIB trie, shared with s, for BuildFIBs alone.
func (s *Snapshot) FIBs() map[string]*trie.Trie[fib.Entry] {
	out := make(map[string]*trie.Trie[fib.Entry], len(s.states))
	for r, st := range s.states {
		out[r] = st.fib
	}
	return out
}

func (s *Snapshot) over(*topology.Topology) Forwarding { return s }
