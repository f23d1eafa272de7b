// Package dist implements §5's distributed verification: instead of
// hauling every FIB to a central machine, each router (node) keeps its own
// FIB, applies its local forwarding step to in-flight verification walks,
// and hands the partial result to the next node — the HSA-style "pass the
// output of the transfer function downstream" construction. Nodes are real
// TCP servers, so the package measures genuine message and byte overheads
// for experiment E9.
//
// The transport is pooled and pipelined: every fleet member keeps one
// persistent connection per peer and writes compact binary frames (see
// codec.go) carrying whole batches of walks, with correlation IDs routing
// results back to the submitting Verify call. A frame that does not start
// with the v1 version byte is dropped.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/fault"
	"hbverify/internal/fib"
	"hbverify/internal/localck"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/trie"
	"hbverify/internal/verify"
	"hbverify/internal/wire"
)

// LocalView is everything one verification node needs: identity, local
// links (the node-local slice of topology a router legitimately knows: its
// own interfaces and who is on the other end), and the local FIB.
type LocalView struct {
	Router   string
	Loopback netip.Addr
	Ifaces   []dataplane.Iface
	FIB      *trie.Trie[fib.Entry]
}

// LocalViewOf extracts a router's local view from a built network.
func LocalViewOf(r *network.Router) LocalView {
	return LocalView{
		Router: r.Name, Loopback: r.Topo.Loopback,
		Ifaces: dataplane.IfacesOf(r.Topo), FIB: r.FIB.Snapshot(),
	}
}

func (v LocalView) lpm(dst netip.Addr) (fib.Entry, bool) {
	e, _, ok := v.FIB.Lookup(dst)
	return e, ok
}

// step applies the shared forwarding step to dst using only node-local
// knowledge: the view's own interfaces and an LPM over its own FIB.
func (v LocalView) step(dst netip.Addr) dataplane.Step {
	l := dataplane.Local{Router: v.Router, Loopback: v.Loopback, Ifaces: v.Ifaces, Lookup: v.lpm}
	return l.Step(dst)
}

// Expand computes this router's forwarding expansion for dst — the same
// step the central dataplane.Walker.Expand applies, so a distributed
// set-walk replays to the same result.
func (v LocalView) Expand(dst netip.Addr) dataplane.Expansion {
	return v.step(dst).Expansion
}

// FrontierHop is one pending stop of a travelling set-walk: a router to
// expand and the DFS depth it was discovered at.
type FrontierHop struct {
	Router string
	Depth  int
}

// ExpMsg is one router's collected forwarding expansion, accumulated as a
// set-walk travels the fleet.
type ExpMsg struct {
	Router string
	dataplane.Expansion
}

// WalkMsg is a verification walk in flight between nodes. Multipath FIBs
// make the walk *symbolic*: instead of hopping one next hop at a time, the
// message is a travelling depth-first search over the forwarding DAG — it
// carries the frontier of routers still to expand plus every expansion
// collected so far, and each node forwards it to the next unexpanded
// frontier router. When the frontier drains the message goes back to the
// coordinator, whose Walk replays dataplane.SymbolicWalk over the collected
// expansions, so the distributed result is identical to the central
// walker's by construction, with O(routers) messages per walk instead of
// O(concrete paths).
type WalkMsg struct {
	WalkID int
	Source string
	Dst    netip.Addr
	// Hops carries the DFS depth of the router the message is addressed
	// to (the classic hop count when no entry is multipath).
	Hops int
	Msgs int // messages spent so far (accounting piggybacks on the walk)
	// Frontier is the travelling DFS stack: routers discovered but not yet
	// expanded, top at the end.
	Frontier []FrontierHop
	// Exps collects per-router expansions in DFS discovery order.
	Exps []ExpMsg
	// Err carries a transport failure (dead peer, timeout) back to the
	// coordinator instead of losing the walk silently.
	Err string
}

// Walk replays the shared symbolic engine over the expansions a returned
// walk collected. A router the walk reached without an expansion is stuck:
// no node vouched for what it does.
func (w WalkMsg) Walk() dataplane.Walk {
	exps := make(map[string]dataplane.Expansion, len(w.Exps))
	for _, e := range w.Exps {
		exps[e.Router] = e.Expansion
	}
	return dataplane.SymbolicWalk(w.Source, w.Dst, dataplane.MaxHops, func(r string) dataplane.Expansion {
		if ex, ok := exps[r]; ok {
			return ex
		}
		return dataplane.Expansion{Stuck: true}
	})
}

// Node is one router's verification server.
type Node struct {
	endpoint
	View LocalView

	directory func(router string) (string, bool) // router -> node address
	resultTo  string                             // coordinator address

	// viewMu guards View against concurrent walk handling and view-delta
	// application. View must not be mutated externally after StartNode.
	// It also guards checker: local checks run against the view they are
	// shipped with, under the same lock.
	viewMu  sync.RWMutex
	checker localck.Checker
	// applyDelay (ns) is SetApplyDelay's test hook.
	applyDelay atomic.Int64
}

// StartNode launches a node listening on 127.0.0.1. directory resolves
// peer node addresses and resultTo is the coordinator's address.
func StartNode(view LocalView, directory func(string) (string, bool), resultTo string) (*Node, error) {
	n := &Node{View: view, directory: directory, resultTo: resultTo}
	if err := n.listen(n.handle); err != nil {
		return nil, err
	}
	return n, nil
}

// handle decodes one inbound frame and applies it; a malformed body is
// dropped.
func (n *Node) handle(mt byte, r *wire.Reader) {
	switch mt {
	case mtWalkBatch:
		id, walks := readWalkBatch(r)
		if r.Err() == nil {
			n.handleWalkBatch(id, walks)
		}
	case mtViewDelta:
		d := readViewDelta(r)
		if r.Err() == nil {
			n.applyViewDelta(d)
		}
	case mtLabels:
		router, nl := readLabels(r)
		if r.Err() == nil {
			n.applyLabels(router, nl)
		}
	}
}

// stepWalk advances a travelling set-walk by one node: it records this
// router's expansion (if not already collected), pushes the discovered
// branches onto the frontier in reverse-sorted order (so pops follow the
// central DFS's pre-order exactly), and forwards the walk to the next
// unexpanded frontier router. It returns the advanced walk, the next
// node's address when the walk continues, and whether the frontier
// drained — the walk then returns to the coordinator, which replays it.
func (n *Node) stepWalk(w WalkMsg) (WalkMsg, string, bool) {
	n.viewMu.RLock()
	defer n.viewMu.RUnlock()
	expanded := make(map[string]bool, len(w.Exps)+1)
	for _, e := range w.Exps {
		expanded[e.Router] = true
	}
	cur := n.View.Router
	depth := w.Hops
	if depth <= 0 {
		depth = 1 // seed: the source router is at DFS depth 1
	}
	if !expanded[cur] {
		ex := n.View.Expand(w.Dst)
		w.Exps = append(w.Exps, ExpMsg{Router: cur, Expansion: ex})
		expanded[cur] = true
		if depth < dataplane.MaxHops {
			// Reverse order: the stack pops the first branch first.
			for i := len(ex.Nexts) - 1; i >= 0; i-- {
				w.Frontier = append(w.Frontier, FrontierHop{Router: ex.Nexts[i], Depth: depth + 1})
			}
		}
	}
	for len(w.Frontier) > 0 {
		top := w.Frontier[len(w.Frontier)-1]
		w.Frontier = w.Frontier[:len(w.Frontier)-1]
		if expanded[top.Router] {
			continue // already explored via an earlier branch
		}
		addr, ok := n.directory(top.Router)
		if !ok {
			// No node serves that router: the branch is unverifiable, and
			// the replay finds it stuck for want of an expansion. Keep
			// exploring the rest of the DAG.
			continue
		}
		w.Hops = top.Depth
		w.Msgs++
		return w, addr, false
	}
	return w, "", true
}

// handleWalkBatch applies the local transfer step to every walk in the
// batch, then sends one frame per destination: finished walks to the
// coordinator, continuing walks grouped by next-hop node.
func (n *Node) handleWalkBatch(batchID int, walks []WalkMsg) {
	var results []WalkMsg
	forwards := map[string][]WalkMsg{}
	var order []string // deterministic send order
	for _, w := range walks {
		w, next, terminal := n.stepWalk(w)
		if terminal {
			results = append(results, w)
			continue
		}
		if _, ok := forwards[next]; !ok {
			order = append(order, next)
		}
		forwards[next] = append(forwards[next], w)
	}
	n.sendWalks(n.resultTo, true, results, batchID)
	for _, addr := range order {
		n.sendWalks(addr, false, forwards[addr], batchID)
	}
}

// sendWalks ships walks to addr as one binary batch frame. Transport
// failures are counted in the node's wire stats; the coordinator's
// deadline converts the lost walk into a reported error.
func (n *Node) sendWalks(addr string, result bool, walks []WalkMsg, batchID int) {
	if len(walks) == 0 {
		return
	}
	mt := mtWalkBatch
	if result {
		mt = mtResultBatch
	}
	_, _ = n.pool.send(addr, func(b []byte) []byte {
		return appendWalkBatch(b, mt, batchID, walks)
	})
}

// applyViewDelta applies a coordinator-shipped view update: entry-level
// FIB installs/removes (or a full replacement) and optionally new
// interface state.
func (n *Node) applyViewDelta(d viewDelta) {
	if delay := n.applyDelay.Load(); delay > 0 {
		time.Sleep(time.Duration(delay))
	}
	n.viewMu.Lock()
	if d.Router != "" && d.Router != n.View.Router {
		n.viewMu.Unlock()
		return
	}
	if d.Full || n.View.FIB == nil {
		n.View.FIB = trie.New[fib.Entry]()
	}
	for _, e := range d.Installs {
		_ = n.View.FIB.Insert(e.Prefix, e)
	}
	for _, p := range d.Removes {
		n.View.FIB.Delete(p)
	}
	if d.HasIface {
		n.View.Ifaces = d.Ifaces
	}
	var rep *LocalReport
	if d.Sync != 0 {
		rep = n.runLocalChecks(d.Sync)
	}
	n.viewMu.Unlock()
	// Send outside viewMu: the report travels on the pool and must not
	// hold up concurrent walk handling.
	if rep != nil {
		n.sendLocalReport(*rep)
	}
}

// Coordinator seeds walks and collects results. Results are routed to the
// submitting ExecuteWalks call by WalkID, so concurrent rounds are safe.
type Coordinator struct {
	endpoint

	mu       sync.Mutex
	nextID   int
	pending  map[int]chan<- WalkMsg
	lastView map[string]LocalView // views last shipped to each node

	// Local-check mode state (also under mu): sync-correlated pending
	// check reports, the label set last pushed to the fleet, and the
	// classes tainted by violations since the last relabel.
	nextSync   int
	pendingLoc map[int]chan<- LocalReport
	labels     *localck.LabelSet
	taint      map[netip.Prefix]bool
	taintAll   bool
}

// StartCoordinator launches the result sink.
func StartCoordinator() (*Coordinator, error) {
	c := &Coordinator{
		pending:    map[int]chan<- WalkMsg{},
		lastView:   map[string]LocalView{},
		pendingLoc: map[int]chan<- LocalReport{},
		taint:      map[netip.Prefix]bool{},
	}
	if err := c.listen(c.handle); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Coordinator) handle(mt byte, r *wire.Reader) {
	switch mt {
	case mtResultBatch:
		_, walks := readWalkBatch(r)
		if r.Err() != nil {
			return
		}
		for _, w := range walks {
			c.deliver(w)
		}
	case mtLocalViolation:
		rep := readLocalReport(r)
		if r.Err() == nil {
			c.deliverLocal(rep)
		}
	}
}

// deliver routes one result to the Verify call waiting on its WalkID.
// Unknown IDs (duplicates, results arriving after a timeout reclaimed the
// walk) are dropped.
func (c *Coordinator) deliver(w WalkMsg) {
	c.mu.Lock()
	ch := c.pending[w.WalkID]
	delete(c.pending, w.WalkID)
	c.mu.Unlock()
	if ch != nil {
		ch <- w // buffered to the caller's walk count; never blocks
	}
}

// Stats aggregates one verification round over the fleet: the checker's
// report plus what the round cost on the wire.
type Stats struct {
	// Walks counts every (policy, source) check in the round, including
	// the ones answered without touching the network.
	Walks int
	// Messages is the logical per-walk hop count (seed + forwards), the
	// algorithm-level measure E9 tracks independent of transport framing.
	Messages int
	// Frames and Bytes count actual transport traffic across the fleet
	// for this round (frames written and bytes on the wire).
	Frames int
	Bytes  int
	// Batches is how many batch frames the coordinator submitted.
	Batches int
	// LocalCertified checks were answered by node-local invariant
	// certificates in local-check mode: zero walk frames on the wire.
	// Escalated counts the checks a local violation or label staleness
	// left to the walk cache and the fleet; LocalViolations is the number
	// of forwarding classes local violation reports have tainted since the
	// last relabel; Relabeled marks rounds that re-derived and pushed
	// distance labels.
	LocalCertified  int
	Escalated       int
	LocalViolations int
	Relabeled       bool
	// Report is the checker's verdict; Report.Results() lists every check,
	// including the ones whose walk failed (dead peer, deadline).
	Report verify.Report
}

// VerifyOpts tunes the fleet executor.
type VerifyOpts struct {
	// Timeout bounds one ExecuteWalks batch; outstanding walks are failed
	// with an error instead of hanging the round. Default 5s.
	Timeout time.Duration
	// Metrics optionally receives dist.* counters and per-node latency
	// timers.
	Metrics *metrics.Registry
}

// Round scheduling: walkWindow bounds in-flight walks (backpressure) and
// walkBatchSize bounds walks per batch frame.
const (
	walkWindow    = 64
	walkBatchSize = 16
)

// Round runs a copy of base over the fleet: the checker decides which
// walks the policies need (its sources, class sharding, cache and
// certificate all apply), the fleet executor runs them, and the round's
// wire cost is the fleet counters' delta around the call. Checks whose
// walk failed are reported as an error, never as a verdict.
func (c *Coordinator) Round(base *verify.Checker, nodes map[string]*Node, policies []verify.Policy, opts VerifyOpts) (Stats, error) {
	f0, b0 := c.FleetWire(nodes)
	ex := c.Executor(nodes, opts)
	ck := *base
	ck.Executor = ex
	rep := ck.Check(policies)
	f1, b1 := c.FleetWire(nodes)

	stats := Stats{
		Report: rep, Walks: rep.Checked + rep.Errors,
		Messages: int(ex.messages.Load()), Batches: int(ex.batches.Load()),
		Frames: int(f1 - f0), Bytes: int(b1 - b0),
	}
	c.mu.Lock()
	stats.LocalViolations = len(c.taint)
	c.mu.Unlock()
	if ck.Certified != nil {
		stats.LocalCertified = rep.Certified
		stats.Escalated = stats.Walks - rep.Certified
	}
	if m := opts.Metrics; m != nil {
		m.Counter("dist.walks").Add(int64(rep.Walks))
		m.Counter("dist.messages").Add(int64(stats.Messages))
		m.Counter("dist.frames").Add(int64(stats.Frames))
		m.Counter("dist.bytes").Add(int64(stats.Bytes))
		m.Counter("dist.batches").Add(int64(stats.Batches))
		m.Counter("dist.errors").Add(int64(rep.Errors))
		m.Counter("dist.walks.local_certified").Add(int64(stats.LocalCertified))
		m.Counter("dist.walks.escalated").Add(int64(stats.Escalated))
	}
	if rep.Errors > 0 {
		return stats, fmt.Errorf("dist: %d of %d checks have no verdict: their walks failed", rep.Errors, stats.Walks)
	}
	return stats, nil
}

// FleetExecutor is the distributed verify.Executor: it runs a batch of
// distinct walks through the node fleet (§5) instead of a central walker.
// Only what is fleet-specific lives here — correlation IDs, per-source
// batch frames, the in-flight window, the deadline, and hop accounting;
// which walks to run and what they mean is the checker's business. Safe
// for concurrent ExecuteWalks calls: correlation IDs isolate them.
type FleetExecutor struct {
	c     *Coordinator
	nodes map[string]*Node
	opts  VerifyOpts

	// Hop count and batch frames submitted, summed over every call.
	messages atomic.Int64
	batches  atomic.Int64
}

// Executor returns a fleet executor over the given nodes.
func (c *Coordinator) Executor(nodes map[string]*Node, opts VerifyOpts) *FleetExecutor {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	return &FleetExecutor{c: c, nodes: nodes, opts: opts}
}

// batchSubmit is one batch frame awaiting submission.
type batchSubmit struct {
	src   string
	walks []WalkMsg
}

// ExecuteWalks implements verify.Executor. Walks are submitted as batch
// frames to their source nodes under a bounded in-flight window and
// matched back by correlation ID; a walk with no node at its source, a
// failed submission, or no result within the deadline is an error.
func (e *FleetExecutor) ExecuteWalks(keys []verify.WalkKey) ([]dataplane.Walk, []error) {
	c, opts := e.c, e.opts
	walks := make([]dataplane.Walk, len(keys))
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(keys))
		}
		errs[i] = err
	}

	// Assign correlation IDs and build per-source batches in key order.
	index := make(map[int]int, len(keys)) // WalkID -> key index, for walks still out
	var batches []batchSubmit
	open := map[string]int{} // src -> index of its open batch
	c.mu.Lock()
	for i, k := range keys {
		if e.nodes[k.Source] == nil {
			fail(i, fmt.Errorf("dist: no node for source %q", k.Source))
			continue
		}
		c.nextID++
		id := c.nextID
		index[id] = i
		ix, ok := open[k.Source]
		if !ok || len(batches[ix].walks) >= walkBatchSize {
			batches = append(batches, batchSubmit{src: k.Source})
			ix = len(batches) - 1
			open[k.Source] = ix
		}
		batches[ix].walks = append(batches[ix].walks, WalkMsg{WalkID: id, Source: k.Source, Dst: k.Dst, Msgs: 1})
	}
	resCh := make(chan WalkMsg, len(index)) // one slot per walk: deliver never blocks
	for id := range index {
		c.pending[id] = resCh
	}
	c.mu.Unlock()
	e.batches.Add(int64(len(batches)))

	var (
		tokens   = make(chan struct{}, walkWindow)
		abort    = make(chan struct{})
		inflight = opts.Metrics.Gauge("dist.window.inflight")
		submitAt sync.Map // WalkID -> time.Time
	)
	// The submitter stops at the end of the batches or when abort closes;
	// a send already in progress is bounded by the pool's write timeout.
	go func() {
		for bi := range batches {
			b := &batches[bi]
			for range b.walks {
				select {
				case tokens <- struct{}{}:
					inflight.Set(int64(len(tokens)))
				case <-abort:
					return
				}
			}
			now := time.Now()
			for _, w := range b.walks {
				submitAt.Store(w.WalkID, now)
			}
			if b.src == batches[0].src && fault.On(fault.DropBatch) {
				// Lost on the wire, reported as returned: the walks come back
				// with nothing collected.
				for _, w := range b.walks {
					c.deliver(w)
				}
				continue
			}
			walks := b.walks
			id := bi + 1
			if _, err := c.pool.send(e.nodes[b.src].Addr(), func(buf []byte) []byte {
				return appendWalkBatch(buf, mtWalkBatch, id, walks)
			}); err != nil {
				// The whole batch failed to submit: every walk in it
				// degrades to a reported error.
				for _, w := range walks {
					w.Err = err.Error()
					c.deliver(w)
				}
			}
		}
	}()

	deadline := time.NewTimer(opts.Timeout)
collect:
	for len(index) > 0 {
		select {
		case w := <-resCh:
			i := index[w.WalkID]
			delete(index, w.WalkID)
			if opts.Metrics != nil {
				if t0, ok := submitAt.Load(w.WalkID); ok {
					opts.Metrics.Timer("dist.node." + w.Source).Observe(time.Since(t0.(time.Time)))
				}
			}
			if w.Err != "" {
				fail(i, errors.New(w.Err))
			} else {
				walks[i] = w.Walk()
				e.messages.Add(int64(w.Msgs))
			}
			<-tokens
			inflight.Set(int64(len(tokens)))
		case <-deadline.C:
			break collect
		}
	}
	deadline.Stop()
	close(abort)
	// Reclaim walks that never came back so a late result is dropped
	// rather than delivered to a reused channel.
	c.mu.Lock()
	for id, i := range index {
		delete(c.pending, id)
		fail(i, fmt.Errorf("dist: walk %s->%s: no result within deadline", keys[i].Source, keys[i].Dst))
	}
	c.mu.Unlock()
	return walks, errs
}

// FleetWire sums the transport counters (frames and bytes written) across
// the coordinator and the given nodes; Round takes before/after deltas for
// per-round accounting. (Concurrent rounds overlap in the deltas but the
// global totals stay exact.)
func (c *Coordinator) FleetWire(nodes map[string]*Node) (frames, bytes int64) {
	frames, bytes, _, _ = c.Wire()
	for _, n := range nodes {
		f, b, _, _ := n.Wire()
		frames += f
		bytes += b
	}
	return frames, bytes
}

// syncTimeout is how long SyncViews waits for the fleet to acknowledge its
// view deltas.
const syncTimeout = 5 * time.Second

// SyncViews pushes router view changes to the fleet as binary delta
// frames and waits for every node to acknowledge its delta. dirty lists
// the routers whose state may have changed; only routers whose FIB or
// interface state actually differs from what was last shipped get a
// frame, and only the changed entries travel.
// Each node applies its delta, validates the new state against its label
// slice, and answers with a check report — the acknowledgement that makes
// it safe to start walks: a walk dispatched after SyncViews returns cannot
// reach a node before its delta did. Violations accumulate in the
// coordinator's taint state until the next relabel. A delta that could not
// be sent, or that no node acknowledged within syncTimeout, is an error:
// the fleet's state is then unknown and the round must not produce a
// verdict.
func (c *Coordinator) SyncViews(nodes map[string]*Node, views map[string]LocalView, dirty []string) (LocalSyncResult, error) {
	var res LocalSyncResult
	// Sized to the worst case so deliverLocal never blocks; each sync ID is
	// registered before its frame is sent.
	ch := make(chan LocalReport, len(dirty))
	var ids []int
	var firstErr error
	for _, r := range dirty {
		v, ok := views[r]
		node := nodes[r]
		if !ok || node == nil {
			continue
		}
		c.mu.Lock()
		old, had := c.lastView[r]
		c.mu.Unlock()
		// With nothing shipped yet, old is the zero view: the delta is the
		// whole FIB.
		d := viewDelta{Router: r, Full: !had}
		d.Installs, d.Removes = fib.Diff(old.FIB, v.FIB)
		if !had || !slices.Equal(old.Ifaces, v.Ifaces) {
			d.HasIface, d.Ifaces = true, v.Ifaces
		}
		if len(d.Installs) == 0 && len(d.Removes) == 0 && !d.HasIface {
			continue
		}
		c.mu.Lock()
		c.nextSync++
		d.Sync = c.nextSync
		c.pendingLoc[d.Sync] = ch
		c.mu.Unlock()
		if _, err := c.pool.send(node.Addr(), func(b []byte) []byte {
			return appendViewDelta(b, &d)
		}); err != nil {
			c.mu.Lock()
			delete(c.pendingLoc, d.Sync)
			c.mu.Unlock()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		res.Sent++
		ids = append(ids, d.Sync)
		c.mu.Lock()
		c.lastView[r] = v
		c.mu.Unlock()
	}

	epoch := c.LabelEpoch()
	deadline := time.NewTimer(syncTimeout)
	defer deadline.Stop()
collect:
	for len(res.Reports) < len(ids) {
		select {
		case rep := <-ch:
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
	unacked := 0
	c.mu.Lock()
	for _, id := range ids {
		if _, still := c.pendingLoc[id]; still {
			delete(c.pendingLoc, id)
			unacked++
		}
	}
	for _, v := range res.Violations {
		c.taint[v.Prefix] = true
	}
	if res.Stale > 0 || unacked > 0 || firstErr != nil {
		c.taintAll = true
	}
	c.mu.Unlock()
	if firstErr == nil && unacked > 0 {
		firstErr = fmt.Errorf("dist: %d of %d view deltas unacknowledged after %v", unacked, len(ids), syncTimeout)
	}
	return res, firstErr
}

// NoteViews records views as already in sync (used by BuildFleet, whose
// nodes start with the views baked in), so the first SyncViews call ships
// deltas rather than full FIBs.
func (c *Coordinator) NoteViews(views map[string]LocalView) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for r, v := range views {
		c.lastView[r] = v
	}
}

// CentralizedBytes estimates the wire cost of the centralized alternative:
// shipping every router's full FIB (as JSON) to one verifier.
func CentralizedBytes(views map[string]LocalView) (int, error) {
	total := 0
	for _, v := range views {
		var entries []fib.Entry
		v.FIB.Walk(func(_ netip.Prefix, e fib.Entry) bool {
			entries = append(entries, e)
			return true
		})
		b, err := json.Marshal(entries)
		if err != nil {
			return 0, err
		}
		total += len(b) + 4
	}
	return total, nil
}

// BuildFleet starts one node per router plus a coordinator, and returns a
// teardown function.
func BuildFleet(n *network.Network) (*Coordinator, map[string]*Node, func(), error) {
	coord, err := StartCoordinator()
	if err != nil {
		return nil, nil, nil, err
	}
	nodes := map[string]*Node{}
	var mu sync.Mutex
	directory := func(router string) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		nd, ok := nodes[router]
		if !ok {
			return "", false
		}
		return nd.Addr(), true
	}
	views := map[string]LocalView{}
	for _, r := range n.Routers() {
		view := LocalViewOf(r)
		node, err := StartNode(view, directory, coord.Addr())
		if err != nil {
			coord.Close()
			for _, nd := range nodes {
				nd.Close()
			}
			return nil, nil, nil, err
		}
		mu.Lock()
		nodes[r.Name] = node
		mu.Unlock()
		views[r.Name] = view
	}
	coord.NoteViews(views)
	teardown := func() {
		for _, nd := range nodes {
			nd.Close()
		}
		coord.Close()
	}
	return coord, nodes, teardown, nil
}
