// Package localck implements per-router local invariant checks that
// certify global forwarding properties, after Foerster & Schmid
// ("Distributed Consistent Network Updates in SDNs"): if every router
// holds a distance-to-egress label derived from a converged epoch, and
// every FIB update preserves (a) next-hop liveness, (b) freedom from
// resolution self-loops, (c) strict label monotonicity toward the
// egress, and (d) ECMP-set canonical form, then the global forwarding
// DAG for that class stays loop-free and blackhole-free without any
// router seeing more than its own FIB.
//
// The labels are a reverse topological order of the forwarding DAG: a
// router that delivers a class locally gets label 0, and a router whose
// resolved next routers are all labeled gets 1 + max over them. Routers
// on broken state at derivation time (loops, drops, stuck resolution)
// stay unlabeled and can never certify — the fleet escalates
// their classes to a real symbolic walk instead. The checks are
// deliberately conservative: a check may flag a state the central
// walker would pass (the escalation walk then clears it), but a state
// the central walker rejects must always flag — the scenario harness
// proves that superset property differentially (oracle 12).
package localck

import (
	"fmt"
	"net/netip"
	"slices"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/route"
)

// Invariant identifies which local check an update violated. The zero
// value means "no violation".
type Invariant uint8

const (
	InvNone Invariant = iota
	// InvNoRoute: a class that was reachable at the label epoch lost its
	// covering route entirely — a blackhole unless an escalation walk
	// proves otherwise.
	InvNoRoute
	// InvNextHopLive: a configured next hop no longer resolves to a live
	// adjacency (dead interface, missing recursive route).
	InvNextHopLive
	// InvSelfLoop: next-hop resolution cycles through the router's own
	// routes (e.g. two statics resolving via each other).
	InvSelfLoop
	// InvLabelMonotone: a resolved next router's distance label is not
	// strictly smaller than this router's — forwarding stopped
	// descending toward the egress, so a loop is possible.
	InvLabelMonotone
	// InvEcmpSet: the entry's next-hop set is not in canonical form
	// (unsorted or duplicated members), so set-level reasoning about the
	// class is unsound.
	InvEcmpSet
	// InvLabelStale: the labels cannot certify this state — the router
	// or a next router was unlabeled at the epoch, or delivery behavior
	// changed since. Not necessarily a fault, but it forces escalation.
	InvLabelStale
)

var invariantNames = [...]string{
	InvNone:          "none",
	InvNoRoute:       "no-route",
	InvNextHopLive:   "next-hop-live",
	InvSelfLoop:      "self-loop",
	InvLabelMonotone: "label-monotone",
	InvEcmpSet:       "ecmp-set",
	InvLabelStale:    "label-stale",
}

func (i Invariant) String() string {
	if int(i) < len(invariantNames) {
		return invariantNames[i]
	}
	return fmt.Sprintf("invariant(%d)", uint8(i))
}

// Violation reports one failed local check: the router and forwarding
// class it happened on, the invariant that failed, and the configured
// next hops implicated (the fleet uses those to scope repair).
type Violation struct {
	Router    string
	Prefix    netip.Prefix
	Invariant Invariant
	// SuspectHops is the configured next-hop set of the covering entry
	// at check time; empty when the route itself is gone.
	SuspectHops []netip.Addr
	Detail      string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s %s %s: %s", v.Router, v.Prefix, v.Invariant, v.Detail)
}

// Unreachable is the label of a router that could not be placed on a
// terminating forwarding chain for a class at derivation time.
const Unreachable = -1

// LabelSet holds the distance-to-egress labels for every router and
// forwarding class derived from one converged epoch.
type LabelSet struct {
	Epoch uint64
	// dist[router][class] — absent entries mean Unreachable.
	dist map[string]map[netip.Prefix]int
}

// Label returns the distance label for a router and class, or
// Unreachable when none was derived.
func (ls *LabelSet) Label(router string, class netip.Prefix) int {
	if ls == nil {
		return Unreachable
	}
	if d, ok := ls.dist[router][class]; ok {
		return d
	}
	return Unreachable
}

// Node slices the label set down to what one router needs for its local
// checks: its own labels plus those of the given peer routers.
func (ls *LabelSet) Node(router string, peers []string) NodeLabels {
	nl := NodeLabels{Epoch: ls.Epoch, Own: map[netip.Prefix]int{}, Peers: map[string]map[netip.Prefix]int{}}
	for c, d := range ls.dist[router] {
		nl.Own[c] = d
	}
	for _, p := range peers {
		if p == router {
			continue
		}
		pm, ok := ls.dist[p]
		if !ok {
			continue
		}
		dst := map[netip.Prefix]int{}
		for c, d := range pm {
			dst[c] = d
		}
		nl.Peers[p] = dst
	}
	return nl
}

// NodeLabels is the per-router label slice a fleet node holds: its own
// distance label per class and the labels of its adjacent routers.
// Absent entries mean Unreachable.
type NodeLabels struct {
	Epoch uint64
	Own   map[netip.Prefix]int
	Peers map[string]map[netip.Prefix]int
}

// Classes returns the node's checked classes in sorted order.
func (nl NodeLabels) Classes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(nl.Own))
	for c := range nl.Own {
		out = append(out, c)
	}
	slices.SortFunc(out, route.ComparePrefix)
	return out
}

// OwnLabel returns the node's label for a class, or Unreachable.
func (nl NodeLabels) OwnLabel(class netip.Prefix) int {
	if d, ok := nl.Own[class]; ok {
		return d
	}
	return Unreachable
}

// PeerLabel returns an adjacent router's label for a class, or
// Unreachable when the peer or class is unknown.
func (nl NodeLabels) PeerLabel(peer string, class netip.Prefix) int {
	if d, ok := nl.Peers[peer][class]; ok {
		return d
	}
	return Unreachable
}

// Derive computes distance-to-egress labels for every router and class
// from a converged forwarding snapshot, read through fwd: one router's
// forwarding expansion for a class, backed by a LocalView, a central
// walker, or a test fixture. A router that delivers a class
// locally and forwards nowhere else gets label 0; a router whose next
// routers are all labeled gets 1 + the maximum over them (a reverse
// topological order, so every forwarding edge strictly decreases the
// label). Routers with broken state — resolution failures, drops, or
// membership in a forwarding cycle — stay unlabeled.
func Derive(routers []string, classes []netip.Prefix, fwd func(router string, class netip.Prefix) dataplane.Expansion, epoch uint64) *LabelSet {
	ls := &LabelSet{Epoch: epoch, dist: make(map[string]map[netip.Prefix]int, len(routers))}
	for _, c := range classes {
		st := make(map[string]dataplane.Expansion, len(routers))
		for _, r := range routers {
			st[r] = fwd(r, c)
		}
		labels := make(map[string]int, len(routers))
		// Longest-path-to-egress over the forwarding DAG by fixpoint:
		// label a router once all its nexts are labeled. Cycles and
		// chains through broken routers never resolve and stay unlabeled.
		for changed := true; changed; {
			changed = false
			for _, r := range routers {
				if _, done := labels[r]; done {
					continue
				}
				s := st[r]
				if s.Dropped || s.Stuck {
					continue
				}
				if len(s.Nexts) == 0 {
					if s.Delivered {
						labels[r] = 0
						changed = true
					}
					continue
				}
				max, ok := -1, true
				for _, nx := range s.Nexts {
					d, labeled := labels[nx]
					if !labeled {
						ok = false
						break
					}
					if d > max {
						max = d
					}
				}
				if ok {
					labels[r] = max + 1
					changed = true
				}
			}
		}
		for r, d := range labels {
			m := ls.dist[r]
			if m == nil {
				m = map[netip.Prefix]int{}
				ls.dist[r] = m
			}
			m[c] = d
		}
	}
	return ls
}

// StateFn resolves the checked router's forwarding step at one class's
// representative: the state a symbolic walk would traverse there.
type StateFn func(class netip.Prefix) dataplane.Step

// Checker applies the local invariants for one router against its
// NodeLabels slice. A Checker with no labels (zero Epoch, nil Own) is
// disabled and certifies nothing.
type Checker struct {
	Labels NodeLabels
}

// Enabled reports whether the checker holds a usable label slice.
func (c *Checker) Enabled() bool {
	return c.Labels.Epoch != 0 && c.Labels.Own != nil
}

// Check runs every invariant for every labeled class and returns the
// violations. state is consulted once per class.
func (c *Checker) Check(router string, state StateFn) []Violation {
	if !c.Enabled() {
		return nil
	}
	var out []Violation
	for _, class := range c.Labels.Classes() {
		out = append(out, c.CheckClass(router, class, state(class))...)
	}
	return out
}

// CheckClass applies the invariants to one class. The rules are sound
// against the label semantics of Derive: own label ≥ 0 asserts that at
// the epoch every resolution branch from this router terminated at a
// delivering egress with strictly descending labels, so any state that
// could break that (lost route, dead or cycling hops, a next router
// whose label is not strictly smaller, an unlabeled next router)
// flags. Unlabeled routers flag as stale the moment they carry any
// forwarding state for the class, since labels cannot vouch for them.
func (c *Checker) CheckClass(router string, class netip.Prefix, st dataplane.Step) []Violation {
	if !c.Enabled() {
		return nil
	}
	own := c.Labels.OwnLabel(class)
	hops := st.Entry.HopSet()
	mk := func(inv Invariant, detail string) Violation {
		return Violation{Router: router, Prefix: class, Invariant: inv, SuspectHops: hops, Detail: detail}
	}
	if own == Unreachable {
		if st.HasRoute || st.Delivered {
			return []Violation{mk(InvLabelStale, "router was unlabeled at epoch but now carries forwarding state")}
		}
		return nil
	}
	var out []Violation
	if !st.HasRoute && !st.Delivered {
		return append(out, mk(InvNoRoute, fmt.Sprintf("label %d but no covering route", own)))
	}
	if !canonical(st.Entry) {
		out = append(out, mk(InvEcmpSet, "next-hop set is not canonical (unsorted or duplicated)"))
	}
	if st.Cycle {
		out = append(out, mk(InvSelfLoop, "next-hop resolution cycles through local routes"))
	}
	if st.Stuck {
		out = append(out, mk(InvNextHopLive, "a next hop no longer resolves to a live adjacency"))
	}
	for _, nx := range st.Nexts {
		d := c.Labels.PeerLabel(nx, class)
		switch {
		case d == Unreachable:
			out = append(out, mk(InvLabelStale, fmt.Sprintf("next router %s has no label for the class", nx)))
		case d >= own:
			out = append(out, mk(InvLabelMonotone, fmt.Sprintf("next router %s label %d >= own label %d", nx, d, own)))
		}
	}
	if len(st.Nexts) == 0 && !st.Delivered && !st.Stuck { // Stuck includes Cycle
		// A covering route that resolves to nothing at all.
		out = append(out, mk(InvNextHopLive, "covering route resolves to no next router"))
	}
	return out
}

// canonical reports whether an entry's configured next-hop set is in the
// form the fib layer maintains: no set at all, or at least two canonical
// members led by the entry's NextHop.
func canonical(e fib.Entry) bool {
	hops := e.NextHops
	return len(hops) == 0 || CanonicalHops(hops) && len(hops) >= 2 && hops[0] == e.NextHop
}

// CanonicalHops reports whether a configured next-hop set is sorted and
// duplicate-free — the canonical form the fib layer maintains and the
// ECMP-set invariant asserts.
func CanonicalHops(hops []netip.Addr) bool {
	for i := 1; i < len(hops); i++ {
		if hops[i-1].Compare(hops[i]) >= 0 {
			return false
		}
	}
	return true
}
