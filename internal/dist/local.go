// Local-check verification mode. Instead of participating in per-walk
// fleet rounds, each node holds a distance-to-egress label slice
// (derived by the fleet from the last full walk epoch) and
// validates every synced install/remove batch against the localck
// invariants the moment it lands. Quiet updates are certified with a
// fixed-size report frame; violations escalate as compact
// mtLocalViolation frames carrying router, prefix, failed invariant,
// and suspect hop set. The fleet turns labels and taint into the
// certificate the one checker consults: certified checks are answered
// with zero walk frames, everything else goes through the checker's
// walk cache and the fleet executor like any other round, and a periodic
// full round re-derives the labels.

package dist

import (
	"net/netip"

	"hbverify/internal/dataplane"
	"hbverify/internal/localck"
)

// ---------------------------------------------------------------------------
// Node side: class state, labels, per-delta checks.
// ---------------------------------------------------------------------------

// ClassState is the router's forwarding step at a class's representative,
// over its own FIB and interfaces: local checks judge exactly the state a
// symbolic walk would traverse.
func (v LocalView) ClassState(class netip.Prefix) dataplane.Step {
	return v.step(dataplane.Representative(class))
}

// Labels is v's slice of ls: the router's own labels and those of the
// routers at the other end of its interfaces.
func (v LocalView) Labels(ls *localck.LabelSet) localck.NodeLabels {
	var peers []string
	seen := map[string]bool{}
	for _, i := range v.Ifaces {
		if i.PeerName != "" && i.PeerName != v.Router && !seen[i.PeerName] {
			seen[i.PeerName] = true
			peers = append(peers, i.PeerName)
		}
	}
	return ls.Node(v.Router, peers)
}

// applyLabels installs a fleet-pushed label slice; subsequent
// synced view deltas are checked against it.
func (n *Node) applyLabels(router string, nl localck.NodeLabels) {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	if router != "" && router != n.View.Router {
		return
	}
	n.checker.Labels = nl
}

// runLocalChecks executes the invariants for every labeled class under
// viewMu and builds the report frame body. A disabled checker still
// acknowledges (Epoch 0, Checked 0) so the fleet can tell
// label-less nodes from lost frames.
func (n *Node) runLocalChecks(sync int) *LocalReport {
	rep := &LocalReport{Sync: sync, Router: n.View.Router, Epoch: n.checker.Labels.Epoch}
	if !n.checker.Enabled() {
		return rep
	}
	classes := n.checker.Labels.Classes()
	rep.Checked = len(classes)
	rep.Violations = n.checker.Check(n.View.Router, n.View.ClassState)
	return rep
}

func (n *Node) sendLocalReport(rep LocalReport) {
	_, _ = n.pool.send(n.resultTo, func(b []byte) []byte {
		return appendLocalReport(b, &rep)
	})
}

// ---------------------------------------------------------------------------
// Fleet side: label derivation and push, the certificate.
// ---------------------------------------------------------------------------

// LocalReport is one node's answer to a synced view delta: how many
// classes its checker validated and the invariant violations it found.
// An empty violation list at the fleet's label epoch is the
// certificate that lets the round skip that node's walks.
type LocalReport struct {
	Sync       int
	Router     string
	Epoch      uint64
	Checked    int
	Violations []localck.Violation
}

// labelEpoch is the epoch of the labels last pushed to the fleet (0
// before the first relabel).
func (f *Fleet) labelEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.labels == nil {
		return 0
	}
	return f.labels.Epoch
}

// relabel derives fresh labels for classes from the live network, at the
// next label epoch, and pushes each node its slice: the periodic
// full-round step of the hybrid loop, run right after a full walk round so
// the labels describe a verified epoch. A router whose node has not yet
// been shipped its live state has notes pending, and the next sync checks
// them against these labels. The taint state resets, since a fresh epoch
// starts clean; a node the push misses leaves the whole epoch uncertified.
func (f *Fleet) relabel(classes []netip.Prefix) error {
	epoch := f.labelEpoch() + 1
	rts := f.net.Routers()
	routers := make([]string, len(rts))
	for i, rt := range rts {
		routers[i] = rt.Name
	}
	live := f.net.LiveWalker()
	ls := localck.Derive(routers, classes, func(r string, class netip.Prefix) dataplane.Expansion {
		return live.Expand(r, dataplane.Representative(class))
	}, epoch)
	var firstErr error
	for _, rt := range rts {
		nl := LocalView{Router: rt.Name, Ifaces: dataplane.IfacesOf(rt.Topo)}.Labels(ls)
		router := rt.Name
		if _, err := f.pool.send(f.Node(router).Addr(), func(b []byte) []byte {
			return appendLabels(b, router, nl)
		}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.mu.Lock()
	f.labels = ls
	f.taint = map[netip.Prefix]bool{}
	f.taintAll = firstErr != nil
	f.mu.Unlock()
	return firstErr
}

// certificate snapshots the label set and taint state into the predicate
// a checker consults before asking for a walk: forwarding from source
// toward prefix is certified when the labels are in sync across the fleet,
// no node has reported a local violation for the class since the last
// relabel, and the source was labeled reachable at the label epoch. A
// certificate answers a check instead of a round trip; everything it
// declines goes through the checker's cache and executor as usual.
func (f *Fleet) certificate() func(source string, prefix netip.Prefix) bool {
	f.mu.Lock()
	ls := f.labels
	taintAll := f.taintAll
	taint := make(map[netip.Prefix]bool, len(f.taint))
	for p := range f.taint {
		taint[p] = true
	}
	f.mu.Unlock()
	return func(source string, prefix netip.Prefix) bool {
		if ls == nil || taintAll || taint[prefix] {
			return false
		}
		// An unlabeled source was not on a terminating forwarding chain at
		// the epoch — nothing local certifies its class now.
		return ls.Label(source, prefix) >= 0
	}
}
