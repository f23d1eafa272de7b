// Local-check verification mode. Instead of participating in per-walk
// fleet rounds, each node holds a distance-to-egress label slice
// (derived by the coordinator from the last full walk epoch) and
// validates every SyncViews install/remove batch against the localck
// invariants the moment it lands. Quiet updates are certified with a
// fixed-size report frame; violations escalate as compact
// mtLocalViolation frames carrying router, prefix, failed invariant,
// and suspect hop set. The coordinator runs the hybrid loop: certified
// classes answer their checks with zero walk frames, tainted classes
// fall back to targeted symbolic walks through the existing
// VerifyWith/WalkCache machinery, and a periodic full round re-derives
// the labels.

package dist

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/localck"
	"hbverify/internal/verify"
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

// SetLocalCheckBug toggles the injectable skip-local-check fault: the
// node keeps acknowledging synced deltas but silently skips the
// invariant checks. Used by the scenario harness to prove oracle 12
// catches a checker that stops checking.
func (n *Node) SetLocalCheckBug(v bool) {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	n.checker.SkipBug = v
}

// LabelEpoch reports the epoch of the node's current label slice (0
// when no labels have been pushed).
func (n *Node) LabelEpoch() uint64 {
	n.viewMu.RLock()
	defer n.viewMu.RUnlock()
	return n.checker.Labels.Epoch
}

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
// Coordinator side: label derivation, checked syncs, the hybrid loop.
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

// LocalSyncResult aggregates one checked view sync.
type LocalSyncResult struct {
	// Sent is the number of delta frames shipped (unchanged routers cost
	// nothing, exactly like SyncViews).
	Sent int
	// Reports holds the per-node check reports, in report arrival order.
	Reports []LocalReport
	// Violations flattens every violation across the reports.
	Violations []localck.Violation
	// Stale counts nodes that answered at a different label epoch than
	// the coordinator's (including label-less nodes) plus nodes that
	// failed to answer before the deadline; any staleness taints the
	// whole round.
	Stale int
	// Checked sums the classes validated across the fleet.
	Checked int
}

// deliverLocal routes a check report to the SyncViewsChecked call
// waiting on its sync ID.
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

// TaintedClasses returns the classes local violations have flagged
// since the last relabel, sorted.
func (c *Coordinator) TaintedClasses() []netip.Prefix {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]netip.Prefix, 0, len(c.taint))
	for p := range c.taint {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return prefixBefore(out[i], out[j]) })
	return out
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

// SyncViewsChecked is the local-check counterpart of SyncViews: every
// delta frame carries a sync ID asking the node to validate the new
// state against its label slice and answer with a check report. The
// call blocks until every shipped delta is certified or reported (or
// timeout, default 5s, expires — unanswered deltas count as stale).
// Violations accumulate in the coordinator's taint state until the next
// relabel.
func (c *Coordinator) SyncViewsChecked(nodes map[string]*Node, views map[string]LocalView, dirty []string, timeout time.Duration) (LocalSyncResult, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	var res LocalSyncResult
	// Pre-size the report channel to the worst case so deliverLocal never
	// blocks; registration happens inside the sync loop before each send.
	max := len(views)
	if dirty != nil {
		max = len(dirty)
	}
	ch := make(chan LocalReport, max+1)
	var ids []int
	sent, _, err := c.syncViews(nodes, views, dirty, func(string) int {
		c.mu.Lock()
		c.nextSync++
		id := c.nextSync
		c.pendingLoc[id] = ch
		c.mu.Unlock()
		ids = append(ids, id)
		return id
	})
	res.Sent = sent
	epoch := c.LabelEpoch()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	waiting := len(ids)
collect:
	for waiting > 0 {
		select {
		case rep := <-ch:
			waiting--
			res.Reports = append(res.Reports, rep)
			res.Checked += rep.Checked
			if rep.Epoch != epoch || epoch == 0 {
				res.Stale++
			}
			res.Violations = append(res.Violations, rep.Violations...)
		case <-deadline.C:
			break collect
		}
	}
	c.mu.Lock()
	for _, id := range ids {
		if _, still := c.pendingLoc[id]; still {
			delete(c.pendingLoc, id)
			res.Stale++ // unanswered delta: that node's state is unverified
		}
	}
	for _, v := range res.Violations {
		c.taint[v.Prefix] = true
	}
	if res.Stale > 0 {
		c.taintAll = true
	}
	c.mu.Unlock()
	return res, err
}

// certifiableKind reports whether a local-check certificate can answer
// a policy kind without a walk: the three global safety properties the
// label invariants guarantee. Everything else (egress pinning,
// waypoints, ECMP consistency) always escalates.
func certifiableKind(k verify.Kind) bool {
	switch k {
	case verify.Reachable, verify.NoLoop, verify.NoBlackhole:
		return true
	}
	return false
}

// VerifyLocal answers a verification round in local-check mode: checks
// whose class is quiet (no violation since the last relabel, labels in
// sync, source labeled reachable) are certified with zero walk frames,
// and the rest escalate as a targeted VerifyWith round over exactly the
// affected (policy, source) pairs. Results arrive in grid order, like
// VerifyWith.
func (c *Coordinator) VerifyLocal(nodes map[string]*Node, policies []verify.Policy, sources []string, opts VerifyOpts) (Stats, error) {
	opts = opts.withDefaults()
	var stats Stats
	f0, b0 := c.fleetWire(nodes)

	c.mu.Lock()
	ls := c.labels
	taintAll := c.taintAll
	taint := make(map[netip.Prefix]bool, len(c.taint))
	for p := range c.taint {
		taint[p] = true
	}
	c.mu.Unlock()
	stats.LocalViolations = len(taint)

	sorted := append([]string(nil), sources...)
	sort.Strings(sorted)

	certified := func(p verify.Policy, src string) bool {
		if ls == nil || taintAll || !certifiableKind(p.Kind) || taint[p.Prefix] {
			return false
		}
		// An unlabeled source was not on a terminating forwarding chain at
		// the epoch — nothing local certifies its class now.
		return ls.Label(src, p.Prefix) >= 0
	}

	escalated := verify.Targeted(policies, sorted, func(p verify.Policy, src string) bool {
		return !certified(p, src)
	})
	var sub Stats
	var err error
	if len(escalated) > 0 {
		sub, err = c.VerifyWith(nodes, escalated, sorted, opts)
	}

	// Merge: walk the full grid in order, answering certified checks
	// locally and splicing escalated results back in sequence.
	si := 0
	for _, p := range policies {
		srcs := p.Sources
		if len(srcs) == 0 {
			srcs = sorted
		}
		for _, src := range srcs {
			if certified(p, src) {
				stats.LocalCertified++
				stats.Report.Checked++
				stats.Results = append(stats.Results, WalkMsg{
					Policy: p, Source: src, Dst: dataplane.Representative(p.Prefix),
					Outcome: dataplane.Delivered, Done: true,
				})
				continue
			}
			stats.Escalated++
			if si < len(sub.Results) {
				stats.Results = append(stats.Results, sub.Results[si])
				si++
			}
		}
	}
	if si != len(sub.Results) {
		// Escalation grid drift would silently misattribute results.
		if err == nil {
			err = fmt.Errorf("dist: local-check merge consumed %d of %d escalated results", si, len(sub.Results))
		}
	}
	stats.Walks = stats.LocalCertified + sub.Walks
	stats.Messages = sub.Messages
	stats.Batches = sub.Batches
	stats.CacheSkipped = sub.CacheSkipped
	stats.CleanSkipped = sub.CleanSkipped
	stats.Errors = sub.Errors
	stats.Report.Checked += sub.Report.Checked
	stats.Report.Violations = sub.Report.Violations
	stats.Report.Walks = sub.Report.Walks
	stats.Report.Cached = sub.Report.Cached
	stats.Report.Deduped = sub.Report.Deduped

	f1, b1 := c.fleetWire(nodes)
	stats.Frames = int(f1 - f0)
	stats.Bytes = int(b1 - b0)
	if opts.Metrics != nil {
		opts.Metrics.Counter("dist.walks.local_certified").Add(int64(stats.LocalCertified))
		opts.Metrics.Counter("dist.walks.escalated").Add(int64(stats.Escalated))
	}
	return stats, err
}

// FleetWire reports the summed transport counters (frames and bytes
// written) across the coordinator and the given nodes — the measure the
// per-round Stats deltas come from. Exported for wire-accounting tests
// and the local-check benchmark.
func (c *Coordinator) FleetWire(nodes map[string]*Node) (frames, bytes int64) {
	return c.fleetWire(nodes)
}
