// Local-check verification mode. Instead of participating in per-walk
// fleet rounds, each node holds a distance-to-egress label slice
// (derived by the coordinator from the last full walk epoch) and
// validates every SyncViews install/remove batch against the localck
// invariants the moment it lands. Quiet updates are certified with a
// fixed-size report frame; violations escalate as compact
// mtLocalViolation frames carrying router, prefix, failed invariant,
// and suspect hop set. The coordinator turns labels and taint into the
// certificate the one checker consults: certified checks are answered
// with zero walk frames, everything else goes through the checker's
// walk cache and the fleet executor like any other round, and a periodic
// full round re-derives the labels.

package dist

import (
	"net/netip"
	"sort"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/localck"
)

// ---------------------------------------------------------------------------
// Node side: class state, labels, per-delta checks.
// ---------------------------------------------------------------------------

// ClassState computes the router's locally-observable forwarding state
// for one class: the shared forwarding step over its own FIB and
// interfaces — so local checks judge exactly the state a symbolic walk
// would traverse — plus the covering entry's configured next-hop set.
func (v *LocalView) ClassState(class netip.Prefix) localck.ClassState {
	s := v.step(dataplane.Representative(class))
	st := localck.ClassState{
		HasRoute: s.HasRoute, Delivered: s.Delivered, Stuck: s.Stuck, SelfLoop: s.Cycle,
		Nexts: s.Nexts, Hops: s.Entry.HopSet(), Canonical: true,
	}
	if hops := s.Entry.NextHops; len(hops) > 0 {
		st.Canonical = localck.CanonicalHops(hops) && hops[0] == s.Entry.NextHop && len(hops) >= 2
	}
	return st
}

// applyLabels installs a coordinator-pushed label slice; subsequent
// synced view deltas are checked against it.
func (n *Node) applyLabels(router string, nl localck.NodeLabels) {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	if router != "" && router != n.View.Router {
		return
	}
	n.checker.Labels = nl
}

// SetApplyDelay is a test hook: the node sits on every view delta for d
// before applying it, the way a busy router would, while walks arriving
// over other connections are served at once. A round that starts walks
// before the delta is acknowledged then reads the node's stale view.
func (n *Node) SetApplyDelay(d time.Duration) { n.applyDelay.Store(int64(d)) }

// runLocalChecks executes the invariants for every labeled class under
// viewMu and builds the report frame body. A disabled checker still
// acknowledges (Epoch 0, Checked 0) so the coordinator can tell
// label-less nodes from lost frames.
func (n *Node) runLocalChecks(sync int) *LocalReport {
	rep := &LocalReport{Sync: sync, Router: n.View.Router, Epoch: n.checker.Labels.Epoch}
	if !n.checker.Enabled() {
		return rep
	}
	classes := n.checker.Labels.Classes()
	rep.Checked = len(classes)
	rep.Violations = n.checker.Check(n.View.Router, func(c netip.Prefix) localck.ClassState {
		return n.View.ClassState(c)
	})
	return rep
}

func (n *Node) sendLocalReport(rep LocalReport) {
	_, _ = n.pool.send(n.resultTo, func(b []byte) []byte {
		return appendLocalReport(b, &rep)
	})
}

// ---------------------------------------------------------------------------
// Coordinator side: label derivation, the certificate, the hybrid loop.
// ---------------------------------------------------------------------------

// LocalReport is one node's answer to a synced view delta: how many
// classes its checker validated and the invariant violations it found.
// An empty violation list at the coordinator's label epoch is the
// certificate that lets the round skip that node's walks.
type LocalReport struct {
	Sync       int
	Router     string
	Epoch      uint64
	Checked    int
	Violations []localck.Violation
}

// LocalSyncResult aggregates one view sync.
type LocalSyncResult struct {
	// Sent is the number of delta frames shipped (unchanged routers cost
	// nothing).
	Sent int
	// Reports holds the per-node check reports, in report arrival order.
	Reports []LocalReport
	// Violations flattens every violation across the reports.
	Violations []localck.Violation
	// Stale counts nodes that answered at a different label epoch than
	// the coordinator's (including label-less nodes); any staleness taints
	// the whole round. A node that does not answer at all fails the sync.
	Stale int
	// Checked sums the classes validated across the fleet.
	Checked int
}

// deliverLocal routes a check report to the SyncViews call waiting on
// its sync ID.
func (c *Coordinator) deliverLocal(rep LocalReport) {
	c.mu.Lock()
	ch := c.pendingLoc[rep.Sync]
	delete(c.pendingLoc, rep.Sync)
	c.mu.Unlock()
	if ch != nil {
		ch <- rep // buffered to the sync's frame count; never blocks
	}
}

// LabelEpoch reports the epoch of the labels last pushed to the fleet
// (0 before the first Relabel).
func (c *Coordinator) LabelEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.labels == nil {
		return 0
	}
	return c.labels.Epoch
}

// DeriveLabelsFromViews computes a distance-to-egress label set for the
// given classes over a set of router views, using each view's own
// expansion semantics (the exact state local checks will later judge).
// Exported for the scenario harness's differential oracle.
func DeriveLabelsFromViews(views map[string]LocalView, classes []netip.Prefix, epoch uint64) *localck.LabelSet {
	routers := make([]string, 0, len(views))
	compiled := make(map[string]*LocalView, len(views))
	for r := range views {
		routers = append(routers, r)
		v := views[r]
		v.Compile()
		compiled[r] = &v
	}
	sort.Strings(routers)
	fwd := func(r string, class netip.Prefix) ([]string, bool, bool) {
		ex := compiled[r].Expand(dataplane.Representative(class))
		return ex.Nexts, ex.Delivered, ex.Dropped || ex.Stuck
	}
	return localck.Derive(routers, classes, fwd, epoch)
}

// DeriveLabels derives fresh labels from the coordinator's record of
// the views last shipped to the fleet, at the next label epoch.
func (c *Coordinator) DeriveLabels(classes []netip.Prefix) *localck.LabelSet {
	c.mu.Lock()
	views := make(map[string]LocalView, len(c.lastView))
	for r, v := range c.lastView {
		views[r] = v
	}
	var epoch uint64 = 1
	if c.labels != nil {
		epoch = c.labels.Epoch + 1
	}
	c.mu.Unlock()
	return DeriveLabelsFromViews(views, classes, epoch)
}

// PushLabels ships each node its slice of the label set — its own
// labels plus those of its adjacent routers — and resets the taint
// state: a fresh epoch starts clean.
func (c *Coordinator) PushLabels(nodes map[string]*Node, ls *localck.LabelSet) (int, error) {
	names := make([]string, 0, len(nodes))
	for r := range nodes {
		names = append(names, r)
	}
	sort.Strings(names)
	sent := 0
	var firstErr error
	for _, r := range names {
		node := nodes[r]
		c.mu.Lock()
		v, ok := c.lastView[r]
		c.mu.Unlock()
		if !ok {
			continue
		}
		var peers []string
		seen := map[string]bool{}
		for _, i := range v.Ifaces {
			if i.PeerName != "" && i.PeerName != r && !seen[i.PeerName] {
				seen[i.PeerName] = true
				peers = append(peers, i.PeerName)
			}
		}
		nl := ls.Node(r, peers)
		router := r
		if _, err := c.pool.send(node.Addr(), func(b []byte) []byte {
			return appendLabels(b, router, nl)
		}); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	c.mu.Lock()
	c.labels = ls
	c.taint = map[netip.Prefix]bool{}
	c.taintAll = firstErr != nil // a node without fresh labels cannot certify
	c.mu.Unlock()
	return sent, firstErr
}

// Relabel derives fresh labels for the given classes from the current
// fleet views and pushes them — the periodic full-round step of the
// hybrid loop. Callers run it right after a full walk round so the
// labels describe a verified epoch.
func (c *Coordinator) Relabel(nodes map[string]*Node, classes []netip.Prefix) (int, error) {
	return c.PushLabels(nodes, c.DeriveLabels(classes))
}

// Certificate snapshots the label set and taint state into the predicate
// a checker consults before asking for a walk: forwarding from source
// toward prefix is certified when the labels are in sync across the fleet,
// no node has reported a local violation for the class since the last
// relabel, and the source was labeled reachable at the label epoch. A
// certificate answers a check instead of a round trip; everything it
// declines goes through the checker's cache and executor as usual.
func (c *Coordinator) Certificate() func(source string, prefix netip.Prefix) bool {
	c.mu.Lock()
	ls := c.labels
	taintAll := c.taintAll
	taint := make(map[netip.Prefix]bool, len(c.taint))
	for p := range c.taint {
		taint[p] = true
	}
	c.mu.Unlock()
	return func(source string, prefix netip.Prefix) bool {
		if ls == nil || taintAll || taint[prefix] {
			return false
		}
		// An unlabeled source was not on a terminating forwarding chain at
		// the epoch — nothing local certifies its class now.
		return ls.Label(source, prefix) >= 0
	}
}
