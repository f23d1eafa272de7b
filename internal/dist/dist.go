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
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/localck"
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
// fleet, whose Walk replays dataplane.SymbolicWalk over the collected
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
	// fleet instead of losing the walk silently.
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
	resultTo  string                             // the fleet's address

	// viewMu guards View against concurrent walk handling and view-delta
	// application. View must not be mutated externally after startNode.
	// It also guards checker: local checks run against the view they are
	// shipped with, under the same lock.
	viewMu  sync.RWMutex
	checker localck.Checker
	// applyDelay (ns) makes the node sit on every view delta that long
	// before applying it, the way a busy router would, while walks arriving
	// over other connections are served at once. Only tests set it.
	applyDelay atomic.Int64
}

// startNode launches a node listening on 127.0.0.1. directory resolves
// peer node addresses and resultTo is the fleet's address.
func startNode(view LocalView, directory func(string) (string, bool), resultTo string) (*Node, error) {
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
// drained — the walk then returns to the fleet, which replays it.
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
// fleet, continuing walks grouped by next-hop node.
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

// sendWalks ships walks to addr as one binary batch frame. Walks that
// cannot be forwarded go back to the fleet at once with Err set, as the
// fleet does with a batch it cannot submit; a result that cannot reach the
// fleet is lost, and its deadline reports it.
func (n *Node) sendWalks(addr string, result bool, walks []WalkMsg, batchID int) {
	if len(walks) == 0 {
		return
	}
	mt := mtWalkBatch
	if result {
		mt = mtResultBatch
	}
	_, err := n.pool.send(addr, func(b []byte) []byte {
		return appendWalkBatch(b, mt, batchID, walks)
	})
	if err != nil && !result {
		for i := range walks {
			walks[i].Err = err.Error()
		}
		n.sendWalks(n.resultTo, true, walks, batchID)
	}
}

// applyViewDelta applies a fleet-shipped view update: entry-level
// FIB installs/removes and optionally new interface state.
func (n *Node) applyViewDelta(d viewDelta) {
	if delay := n.applyDelay.Load(); delay > 0 {
		time.Sleep(time.Duration(delay))
	}
	n.viewMu.Lock()
	if d.Router != "" && d.Router != n.View.Router {
		n.viewMu.Unlock()
		return
	}
	if n.View.FIB == nil {
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
	// for the whole round (frames written and bytes on the wire): view
	// sync, local reports, walks and label pushes.
	Frames int
	Bytes  int
	// Batches is how many batch frames the fleet submitted.
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

// Round scheduling: walkWindow bounds in-flight walks (backpressure) and
// walkBatchSize bounds walks per batch frame.
const (
	walkWindow    = 64
	walkBatchSize = 16
)

// FleetExecutor is the distributed verify.Executor: it runs a batch of
// distinct walks through the node fleet (§5) instead of a central walker.
// Only what is fleet-specific lives here — correlation IDs, per-source
// batch frames, the in-flight window, the deadline, and hop accounting;
// which walks to run and what they mean is the checker's business. Safe
// for concurrent ExecuteWalks calls: correlation IDs isolate them.
type FleetExecutor struct {
	f *Fleet

	// Hop count and batch frames submitted, summed over every call.
	messages atomic.Int64
	batches  atomic.Int64
}

// executor returns a fresh fleet executor: its hop and batch counts are
// one round's.
func (f *Fleet) executor() *FleetExecutor { return &FleetExecutor{f: f} }

// batchSubmit is one batch frame awaiting submission.
type batchSubmit struct {
	src   string
	walks []WalkMsg
}

// ExecuteWalks implements verify.Executor. Walks go as batch frames to their
// source nodes under a bounded in-flight window and are matched back by
// correlation ID; a walk with no node at its source, a failed submission or
// forward, or no result by walkTimeout or the fleet's close is an error.
func (e *FleetExecutor) ExecuteWalks(keys []verify.WalkKey) ([]dataplane.Walk, []error) {
	f, reg := e.f, e.f.metrics
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
	open := map[string]int{}               // src -> index of its open batch
	resCh := make(chan WalkMsg, len(keys)) // a slot per walk: deliver never blocks
	f.mu.Lock()
	for i, k := range keys {
		if f.nodes[k.Source] == nil {
			fail(i, fmt.Errorf("dist: no node for source %q", k.Source))
			continue
		}
		id := expect(f, resCh)
		index[id] = i
		ix, ok := open[k.Source]
		if !ok || len(batches[ix].walks) >= walkBatchSize {
			batches = append(batches, batchSubmit{src: k.Source})
			ix = len(batches) - 1
			open[k.Source] = ix
		}
		batches[ix].walks = append(batches[ix].walks, WalkMsg{WalkID: id, Source: k.Source, Dst: k.Dst, Msgs: 1})
	}
	f.mu.Unlock()
	e.batches.Add(int64(len(batches)))

	var (
		tokens   = make(chan struct{}, walkWindow)
		abort    = make(chan struct{})
		inflight = reg.Gauge("dist.window.inflight")
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
			walks := b.walks
			id := bi + 1
			if _, err := f.pool.send(f.Node(b.src).Addr(), func(buf []byte) []byte {
				return appendWalkBatch(buf, mtWalkBatch, id, walks)
			}); err != nil {
				// The whole batch failed to submit: every walk in it
				// degrades to a reported error.
				for _, w := range walks {
					w.Err = err.Error()
					deliver(f, w.WalkID, w)
				}
			}
		}
	}()

	why := wait(f, resCh, index, func(w WalkMsg) int { return w.WalkID }, walkTimeout, func(i int, w WalkMsg) {
		if reg != nil {
			if t0, ok := submitAt.Load(w.WalkID); ok {
				reg.Timer("dist.node." + w.Source).Observe(time.Since(t0.(time.Time)))
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
	})
	close(abort)
	for _, i := range index {
		fail(i, fmt.Errorf("dist: walk %s->%s: no result %s", keys[i].Source, keys[i].Dst, why))
	}
	return walks, errs
}
