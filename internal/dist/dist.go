// Package dist implements §5's distributed verification: instead of
// hauling every FIB to a central machine, each router (node) keeps its own
// FIB and happens-before subgraph, applies its local forwarding step to
// in-flight verification walks, and hands the partial result to the next
// node — the HSA-style "pass the output of the transfer function
// downstream" construction. Nodes are real TCP servers, so the package
// measures genuine message and byte overheads for experiment E9.
//
// The transport is pooled and pipelined: every fleet member keeps one
// persistent connection per peer and writes compact binary frames (see
// codec.go) carrying whole batches of walks, with correlation IDs routing
// results back to the submitting Verify call. A frame that does not start
// with the v1 version byte is dropped.
package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/localck"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/trie"
	"hbverify/internal/verify"
)

// LocalView is everything one verification node needs: identity, local
// links (the node-local slice of topology a router legitimately knows: its
// own interfaces and who is on the other end), and the local FIB.
type LocalView struct {
	Router   string
	Loopback netip.Addr
	Ifaces   []dataplane.Iface
	FIB      map[netip.Prefix]fib.Entry

	// lpmTrie indexes FIB for longest-prefix matching; built by Compile.
	lpmTrie *trie.Trie[fib.Entry]
}

// LocalViewOf extracts a router's local view from a built network.
func LocalViewOf(r *network.Router) LocalView {
	return LocalView{
		Router: r.Name, Loopback: r.Topo.Loopback,
		Ifaces: dataplane.IfacesOf(r.Topo), FIB: r.FIB.Snapshot(),
	}
}

// Compile (re)builds the longest-prefix-match index over the FIB. It must
// be called again after mutating FIB; views constructed by hand without
// calling it are compiled lazily on first lookup.
func (v *LocalView) Compile() {
	t := trie.New[fib.Entry]()
	for p, e := range v.FIB {
		t.Insert(p, e)
	}
	v.lpmTrie = t
}

func (v *LocalView) lpm(dst netip.Addr) (fib.Entry, bool) {
	if v.lpmTrie == nil {
		v.Compile()
	}
	e, _, ok := v.lpmTrie.Lookup(dst)
	return e, ok
}

// step applies the shared forwarding step to dst using only node-local
// knowledge: the view's own interfaces and an LPM over its own FIB.
func (v *LocalView) step(dst netip.Addr) dataplane.Step {
	l := dataplane.Local{Router: v.Router, Loopback: v.Loopback, Ifaces: v.Ifaces, Lookup: v.lpm}
	return l.Step(dst)
}

// Expand computes this router's forwarding expansion for dst — the same
// step the central dataplane.Walker.Expand applies, so a distributed
// set-walk replays to the same result.
func (v *LocalView) Expand(dst netip.Addr) dataplane.Expansion {
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
	Router    string
	Delivered bool
	Dropped   bool
	Stuck     bool
	Nexts     []string
}

// WalkMsg is a verification walk in flight between nodes. Multipath FIBs
// make the walk *symbolic*: instead of hopping one next hop at a time, the
// message is a travelling depth-first search over the forwarding DAG — it
// carries the frontier of routers still to expand plus every expansion
// collected so far, and each node forwards it to the next unexpanded
// frontier router. The final node replays dataplane.SymbolicWalk over the
// collected expansions, so the distributed result is identical to the
// central walker's by construction, with O(routers) messages per walk
// instead of O(concrete paths).
type WalkMsg struct {
	WalkID int
	Policy verify.Policy
	Source string
	Dst    netip.Addr
	Path   []string
	// Hops carries the DFS depth of the router the message is addressed
	// to (the classic hop count when no entry is multipath).
	Hops    int
	Msgs    int // messages spent so far (accounting piggybacks on the walk)
	Outcome dataplane.Outcome
	Done    bool
	Egress  string
	// Frontier is the travelling DFS stack: routers discovered but not yet
	// expanded, top at the end.
	Frontier []FrontierHop
	// Exps collects per-router expansions in DFS discovery order.
	Exps []ExpMsg
	// Egresses, Edges, and Branches mirror the symbolic dataplane.Walk
	// fields on finished walks whose exploration branched.
	Egresses []string
	Edges    [][2]string
	Branches int
	// Err carries a transport failure (dead peer, timeout) back to the
	// coordinator instead of losing the walk silently.
	Err string
}

// AsWalk converts a finished walk message to the dataplane result it
// represents.
func (w WalkMsg) AsWalk() dataplane.Walk {
	return dataplane.Walk{
		Dst: w.Dst, Outcome: w.Outcome, Path: w.Path, Egress: w.Egress,
		Egresses: w.Egresses, Edges: w.Edges, Branches: w.Branches,
	}
}

// idleTimeout bounds how long a server-side read blocks between frames on
// a persistent connection; an idle peer costs a redial, a dead one is
// detected instead of parking a goroutine forever.
const idleTimeout = 2 * time.Minute

// Node is one router's verification server.
type Node struct {
	View LocalView

	ln        net.Listener
	directory func(router string) (string, bool) // router -> node address
	resultTo  string                             // coordinator address

	pool  *pool
	wire  *wireStats
	conns *connSet

	// viewMu guards View against concurrent walk handling and view-delta
	// application. View must not be mutated externally after StartNode.
	// It also guards checker: local checks run against the view they are
	// shipped with, under the same lock.
	viewMu  sync.RWMutex
	checker localck.Checker

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// StartNode launches a node listening on 127.0.0.1. directory resolves
// peer node addresses and resultTo is the coordinator's address.
func StartNode(view LocalView, directory func(string) (string, bool), resultTo string) (*Node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wire := &wireStats{}
	n := &Node{
		View: view, ln: ln, directory: directory, resultTo: resultTo,
		wire: wire, pool: newPool(wire), conns: newConnSet(),
	}
	// Compile the LPM index up front: walk handlers run concurrently and
	// must not race on the lazy build.
	n.View.Compile()
	n.wg.Add(1)
	go n.serve()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Wire reports the node's transport counters: frames and bytes written,
// redial retries, and sends abandoned after exhausting retries.
func (n *Node) Wire() (frames, bytes, retries, errors int64) {
	return n.wire.frames.Load(), n.wire.bytes.Load(), n.wire.retries.Load(), n.wire.errors.Load()
}

// Close shuts the node down: the listener stops, accepted connections are
// closed (unparking readers blocked on persistent peers), pooled outbound
// connections are torn down, and all serving goroutines are joined.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	err := n.ln.Close()
	n.conns.closeAll()
	n.pool.closeAll()
	n.wg.Wait()
	return err
}

func (n *Node) serve() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.conns.add(conn)
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer n.conns.remove(conn)
			defer conn.Close()
			for {
				_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
				payload, err := readFrame(conn)
				if err != nil {
					return
				}
				n.dispatch(payload)
			}
		}()
	}
}

// dispatch decodes one inbound frame and applies it; anything that is not
// a well-formed v1 frame is dropped.
func (n *Node) dispatch(payload []byte) {
	if len(payload) < 2 || payload[0] != frameV1 {
		return
	}
	r := &wireReader{b: payload[2:]}
	switch payload[1] {
	case mtWalkBatch:
		id, walks := r.walkBatch()
		if r.err == nil {
			n.handleWalkBatch(id, walks)
		}
	case mtViewDelta:
		d := r.viewDelta()
		if r.err == nil {
			n.applyViewDelta(d)
		}
	case mtLabels:
		router, nl := r.labels()
		if r.err == nil {
			n.applyLabels(router, nl)
		}
	}
}

// walkMaxHops bounds the DFS depth of a distributed walk, matching the
// central walker's default.
const walkMaxHops = 64

// stepWalk advances a travelling set-walk by one node: it records this
// router's expansion (if not already collected), pushes the discovered
// branches onto the frontier in reverse-sorted order (so pops follow the
// central DFS's pre-order exactly), and forwards the walk to the next
// unexpanded frontier router. When the frontier drains, the walk
// terminates here: the node replays dataplane.SymbolicWalk over the
// collected expansions, yielding the same Walk the central walker would
// compute. It returns the advanced walk, the next node's address when the
// walk continues, and whether the walk terminated.
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
		w.Exps = append(w.Exps, ExpMsg{
			Router: cur, Delivered: ex.Delivered, Dropped: ex.Dropped,
			Stuck: ex.Stuck, Nexts: ex.Nexts,
		})
		expanded[cur] = true
		if depth < walkMaxHops {
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
			// No node serves that router: the branch is unverifiable —
			// record it stuck and keep exploring the rest of the DAG.
			w.Exps = append(w.Exps, ExpMsg{Router: top.Router, Stuck: true})
			expanded[top.Router] = true
			continue
		}
		w.Hops = top.Depth
		w.Msgs++
		return w, addr, false
	}
	// Frontier exhausted: replay the shared symbolic engine over the
	// collected expansions to aggregate outcomes and detect loops.
	exps := make(map[string]dataplane.Expansion, len(w.Exps))
	for _, e := range w.Exps {
		exps[e.Router] = dataplane.Expansion{
			Delivered: e.Delivered, Dropped: e.Dropped, Stuck: e.Stuck, Nexts: e.Nexts,
		}
	}
	replay := dataplane.SymbolicWalk(w.Source, w.Dst, walkMaxHops, func(r string) dataplane.Expansion {
		if ex, ok := exps[r]; ok {
			return ex
		}
		return dataplane.Expansion{Stuck: true}
	})
	w.Done = true
	w.Outcome = replay.Outcome
	w.Path = replay.Path
	w.Egress = replay.Egress
	w.Egresses = replay.Egresses
	w.Edges = replay.Edges
	w.Branches = replay.Branches
	w.Frontier = nil
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
// interface state, then recompiles the LPM index.
func (n *Node) applyViewDelta(d viewDelta) {
	n.viewMu.Lock()
	if d.Router != "" && d.Router != n.View.Router {
		n.viewMu.Unlock()
		return
	}
	if d.Full || n.View.FIB == nil {
		n.View.FIB = make(map[netip.Prefix]fib.Entry, len(d.Installs))
	}
	for _, e := range d.Installs {
		n.View.FIB[e.Prefix] = e
	}
	for _, p := range d.Removes {
		delete(n.View.FIB, p)
	}
	if d.HasIface {
		n.View.Ifaces = d.Ifaces
	}
	n.View.Compile()
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

// Result is one finished walk as the coordinator sees it.
type Result struct {
	Walk      WalkMsg
	Violation *verify.Violation
}

// retKey identifies a retained walk result.
type retKey struct {
	src string
	dst netip.Addr
}

// Coordinator seeds walks and collects results. Results are routed to the
// submitting Verify call by WalkID, so concurrent Verify calls are safe.
type Coordinator struct {
	ln    net.Listener
	pool  *pool
	wire  *wireStats
	conns *connSet
	wg    sync.WaitGroup

	mu       sync.Mutex
	nextID   int
	pending  map[int]chan<- WalkMsg
	retained map[retKey]WalkMsg   // last completed walk per (source, dst)
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wire := &wireStats{}
	c := &Coordinator{
		ln: ln, wire: wire, pool: newPool(wire), conns: newConnSet(),
		pending:    map[int]chan<- WalkMsg{},
		retained:   map[retKey]WalkMsg{},
		lastView:   map[string]LocalView{},
		pendingLoc: map[int]chan<- LocalReport{},
		taint:      map[netip.Prefix]bool{},
	}
	c.wg.Add(1)
	go c.serve()
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Wire reports the coordinator's transport counters.
func (c *Coordinator) Wire() (frames, bytes, retries, errors int64) {
	return c.wire.frames.Load(), c.wire.bytes.Load(), c.wire.retries.Load(), c.wire.errors.Load()
}

// Close shuts the coordinator down.
func (c *Coordinator) Close() error {
	err := c.ln.Close()
	c.conns.closeAll()
	c.pool.closeAll()
	c.wg.Wait()
	return err
}

func (c *Coordinator) serve() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.conns.add(conn)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer c.conns.remove(conn)
			defer conn.Close()
			for {
				_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
				payload, err := readFrame(conn)
				if err != nil {
					return
				}
				c.dispatch(payload)
			}
		}()
	}
}

func (c *Coordinator) dispatch(payload []byte) {
	if len(payload) < 2 || payload[0] != frameV1 {
		return
	}
	r := &wireReader{b: payload[2:]}
	switch payload[1] {
	case mtResultBatch:
		_, walks := r.walkBatch()
		if r.err != nil {
			return
		}
		for _, w := range walks {
			c.deliver(w)
		}
	case mtLocalViolation:
		rep := r.localReport()
		if r.err == nil {
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

// retain remembers a completed walk so later delta-aware rounds can reuse
// it when no router on its path changed.
func (c *Coordinator) retain(src string, dst netip.Addr, w WalkMsg) {
	c.mu.Lock()
	c.retained[retKey{src: src, dst: dst}] = w
	c.mu.Unlock()
}

func (c *Coordinator) retainedWalk(src string, dst netip.Addr) (WalkMsg, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.retained[retKey{src: src, dst: dst}]
	return w, ok
}

// Stats aggregates a distributed verification run.
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
	// CacheSkipped walks were answered by the walk cache; CleanSkipped
	// were reused from the previous round because no dirty router lay on
	// their recorded path. Neither touches the network.
	CacheSkipped int
	CleanSkipped int
	// LocalCertified walks were answered by node-local invariant
	// certificates in local-check mode: zero walk frames on the wire.
	// Escalated counts the walks a local violation or label staleness
	// forced back onto the fleet; LocalViolations is the number of
	// forwarding classes local violation reports have tainted since the
	// last relabel; Relabeled marks rounds that re-derived and pushed
	// distance labels.
	LocalCertified  int
	Escalated       int
	LocalViolations int
	Relabeled       bool
	// Errors counts walks that failed (dead peer, deadline) instead of
	// completing; each failure appears in Results with Err set.
	Errors int
	// Results holds every walk's final state in submission order.
	Results []WalkMsg
	Report  verify.Report
}

// VerifyOpts tunes one verification round.
type VerifyOpts struct {
	// Cache, when set, answers walks from the shared walk cache and stores
	// fresh results back; cached walks never touch the network.
	Cache *verify.WalkCache
	// Dirty lists the routers whose forwarding state changed since the
	// previous round on this coordinator. Non-nil Dirty lets the scheduler
	// reuse retained results whose paths avoid every dirty router; nil
	// means "no delta information — everything is dirty".
	Dirty []string
	// Timeout bounds the whole round; outstanding walks are failed with an
	// error instead of hanging Verify. Default 5s.
	Timeout time.Duration
	// Metrics optionally receives dist.* counters and per-node latency
	// timers.
	Metrics *metrics.Registry
	// DropBatch is a fault-injection hook for tests: when it returns true
	// for a batch, the batch is not sent and its walks complete with empty
	// results — simulating a transport that loses a batch but reports
	// success. Production callers leave it nil.
	DropBatch func(src string, walks int) bool
}

// Round scheduling: walkWindow bounds in-flight walks (backpressure) and
// walkBatchSize bounds walks per batch frame.
const (
	walkWindow    = 64
	walkBatchSize = 16
)

func (o VerifyOpts) withDefaults() VerifyOpts {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	return o
}

// Verify runs the given policies across the node fleet with default
// options: one walk per (policy, source), batched binary transport. It
// blocks until every result arrives or the deadline passes.
func (c *Coordinator) Verify(nodes map[string]*Node, policies []verify.Policy, sources []string) (Stats, error) {
	return c.VerifyWith(nodes, policies, sources, VerifyOpts{})
}

// Walk executes one data-plane walk from src toward dst through the node
// fleet and returns the finished walk. It runs as a single-walk round:
// correlation IDs and the pending map already isolate concurrent rounds,
// so any number of Walk calls may be in flight at once from different
// goroutines — this is the primitive the serving layer's distributed
// executor is built on, one miniature round per query plan.
func (c *Coordinator) Walk(nodes map[string]*Node, src string, dst netip.Addr, opts VerifyOpts) (dataplane.Walk, error) {
	p := verify.Policy{Kind: verify.NoLoop, Prefix: netip.PrefixFrom(dst, dst.BitLen()), Sources: []string{src}}
	stats, err := c.VerifyWith(nodes, []verify.Policy{p}, nil, opts)
	if err != nil {
		return dataplane.Walk{}, err
	}
	if len(stats.Results) == 0 {
		return dataplane.Walk{}, fmt.Errorf("dist: walk %s->%s returned no result", src, dst)
	}
	return stats.Results[0].AsWalk(), nil
}

// verifyJob is one (policy, source) check in a round.
type verifyJob struct {
	policy verify.Policy
	src    string
	dst    netip.Addr
	id     int            // correlation ID; 0 for skipped jobs
	live   bool           // true when the walk must traverse the network
	walk   dataplane.Walk // pre-resolved walk for skipped jobs
}

// batchSubmit is one batch frame awaiting submission.
type batchSubmit struct {
	src   string
	walks []WalkMsg
}

// VerifyWith runs one verification round under the given options. The
// scheduler first answers what it can without the network (walk-cache
// hits, retained results untouched by dirty routers), then submits the
// rest as batch frames under a bounded in-flight window; results are
// matched by correlation ID and checks are evaluated in submission order
// so violation lists stay deterministic.
func (c *Coordinator) VerifyWith(nodes map[string]*Node, policies []verify.Policy, sources []string, opts VerifyOpts) (Stats, error) {
	opts = opts.withDefaults()
	var stats Stats
	f0, b0 := c.fleetWire(nodes)

	sources = append([]string(nil), sources...)
	sort.Strings(sources)
	var epoch uint64
	if opts.Cache != nil {
		epoch = opts.Cache.Begin()
	}
	var dirty map[string]struct{}
	if opts.Dirty != nil {
		dirty = make(map[string]struct{}, len(opts.Dirty))
		for _, r := range opts.Dirty {
			dirty[r] = struct{}{}
		}
	}

	var jobs []verifyJob
	for _, p := range policies {
		srcs := p.Sources
		if len(srcs) == 0 {
			srcs = sources
		}
		for _, src := range srcs {
			if nodes[src] == nil {
				return stats, fmt.Errorf("dist: no node for source %q", src)
			}
			j := verifyJob{policy: p, src: src, dst: dataplane.Representative(p.Prefix)}
			if opts.Cache != nil {
				if w, ok := opts.Cache.Lookup(src, j.dst); ok {
					j.walk = w
					stats.CacheSkipped++
					jobs = append(jobs, j)
					continue
				}
			}
			if dirty != nil {
				if prev, ok := c.retainedWalk(src, j.dst); ok && pathAvoids(prev.Path, dirty) {
					j.walk = prev.AsWalk()
					stats.CleanSkipped++
					jobs = append(jobs, j)
					continue
				}
			}
			j.live = true
			jobs = append(jobs, j)
		}
	}
	stats.Walks = len(jobs)

	// Assign correlation IDs and build per-source batches in job order.
	live := 0
	var batches []batchSubmit
	open := map[string]int{} // src -> index of its open batch
	c.mu.Lock()
	for i := range jobs {
		j := &jobs[i]
		if !j.live {
			continue
		}
		live++
		c.nextID++
		j.id = c.nextID
		w := WalkMsg{WalkID: j.id, Policy: j.policy, Source: j.src, Dst: j.dst, Msgs: 1}
		ix, ok := open[j.src]
		if !ok || len(batches[ix].walks) >= walkBatchSize {
			batches = append(batches, batchSubmit{src: j.src})
			ix = len(batches) - 1
			open[j.src] = ix
		}
		batches[ix].walks = append(batches[ix].walks, w)
	}
	c.mu.Unlock()
	stats.Batches = len(batches)

	collected := make(map[int]WalkMsg, live)
	if live > 0 {
		resCh := make(chan WalkMsg, live)
		c.mu.Lock()
		for _, b := range batches {
			for _, w := range b.walks {
				c.pending[w.WalkID] = resCh
			}
		}
		c.mu.Unlock()

		var (
			tokens   = make(chan struct{}, walkWindow)
			abort    = make(chan struct{})
			inflight = opts.Metrics.Gauge("dist.window.inflight")
			submitAt sync.Map // WalkID -> time.Time
		)
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
				if opts.DropBatch != nil && opts.DropBatch(b.src, len(b.walks)) {
					for _, w := range b.walks {
						w.Done = true
						c.deliver(w)
					}
					continue
				}
				addr := nodes[b.src].Addr()
				walks := b.walks
				id := bi + 1
				if _, err := c.pool.send(addr, func(buf []byte) []byte {
					return appendWalkBatch(buf, mtWalkBatch, id, walks)
				}); err != nil {
					// The whole batch failed to submit: every walk in it
					// degrades to a reported error.
					for _, w := range walks {
						w.Done, w.Err = true, err.Error()
						c.deliver(w)
					}
				}
			}
		}()

		deadline := time.NewTimer(opts.Timeout)
	collect:
		for len(collected) < live {
			select {
			case w := <-resCh:
				collected[w.WalkID] = w
				if opts.Metrics != nil {
					if t0, ok := submitAt.Load(w.WalkID); ok {
						opts.Metrics.Timer("dist.node." + w.Source).Observe(time.Since(t0.(time.Time)))
					}
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
		for i := range jobs {
			j := &jobs[i]
			if j.live {
				if _, ok := collected[j.id]; !ok {
					delete(c.pending, j.id)
				}
			}
		}
		c.mu.Unlock()
	}

	for i := range jobs {
		j := &jobs[i]
		var w WalkMsg
		if j.live {
			var ok bool
			w, ok = collected[j.id]
			if !ok {
				w = WalkMsg{WalkID: j.id, Policy: j.policy, Source: j.src, Dst: j.dst,
					Err: "no result within deadline"}
			}
			if w.Err != "" {
				stats.Errors++
				stats.Results = append(stats.Results, w)
				continue
			}
			stats.Messages += w.Msgs
			c.retain(j.src, j.dst, w)
			if opts.Cache != nil {
				opts.Cache.Store(j.src, j.dst, w.AsWalk(), epoch)
			}
		} else {
			w = WalkMsg{Policy: j.policy, Source: j.src, Dst: j.dst, Done: true,
				Path: j.walk.Path, Outcome: j.walk.Outcome, Egress: j.walk.Egress,
				Egresses: j.walk.Egresses, Edges: j.walk.Edges, Branches: j.walk.Branches}
			if j.walk.Dst.IsValid() {
				w.Dst = j.walk.Dst
			}
		}
		stats.Results = append(stats.Results, w)
		stats.Report.Checked++
		walk := w.AsWalk()
		if v, bad := verify.Evaluate(j.policy, j.src, walk); bad {
			stats.Report.Violations = append(stats.Report.Violations, v)
		}
	}

	f1, b1 := c.fleetWire(nodes)
	stats.Frames = int(f1 - f0)
	stats.Bytes = int(b1 - b0)
	if m := opts.Metrics; m != nil {
		m.Counter("dist.walks").Add(int64(live))
		m.Counter("dist.messages").Add(int64(stats.Messages))
		m.Counter("dist.frames").Add(int64(stats.Frames))
		m.Counter("dist.bytes").Add(int64(stats.Bytes))
		m.Counter("dist.batches").Add(int64(stats.Batches))
		m.Counter("dist.walks.cache_skipped").Add(int64(stats.CacheSkipped))
		m.Counter("dist.walks.clean_skipped").Add(int64(stats.CleanSkipped))
		m.Counter("dist.errors").Add(int64(stats.Errors))
	}
	if stats.Errors > 0 {
		return stats, fmt.Errorf("dist: %d of %d walks failed", stats.Errors, live)
	}
	return stats, nil
}

// fleetWire sums transport counters across the coordinator and nodes;
// Verify takes before/after deltas for per-round accounting. (Concurrent
// rounds overlap in the deltas but the global totals stay exact.)
func (c *Coordinator) fleetWire(nodes map[string]*Node) (frames, bytes int64) {
	frames, bytes = c.wire.frames.Load(), c.wire.bytes.Load()
	for _, n := range nodes {
		f, b, _, _ := n.Wire()
		frames += f
		bytes += b
	}
	return frames, bytes
}

// pathAvoids reports whether no router on path is in dirty.
func pathAvoids(path []string, dirty map[string]struct{}) bool {
	for _, r := range path {
		if _, ok := dirty[r]; ok {
			return false
		}
	}
	return true
}

// DiffFIB computes the entry-level delta from old to new: entries to
// install (new or changed) and prefixes to remove. Both outputs are sorted
// for deterministic frames.
func DiffFIB(old, cur map[netip.Prefix]fib.Entry) (installs []fib.Entry, removes []netip.Prefix) {
	for p, e := range cur {
		if oe, ok := old[p]; !ok || !oe.Equal(e) {
			installs = append(installs, e)
		}
	}
	for p := range old {
		if _, ok := cur[p]; !ok {
			removes = append(removes, p)
		}
	}
	sort.Slice(installs, func(i, j int) bool { return prefixBefore(installs[i].Prefix, installs[j].Prefix) })
	sort.Slice(removes, func(i, j int) bool { return prefixBefore(removes[i], removes[j]) })
	return installs, removes
}

func prefixBefore(a, b netip.Prefix) bool {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c < 0
	}
	return a.Bits() < b.Bits()
}

func ifacesEqual(a, b []dataplane.Iface) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SyncViews pushes router view changes to the fleet as binary delta
// frames. dirty lists the routers whose state may have changed (nil means
// every router in views); only routers whose FIB or interface state
// actually differs from what was last shipped get a frame, and only the
// changed entries travel. Retained walk results crossing a changed router
// are invalidated. It returns the number of delta frames sent.
func (c *Coordinator) SyncViews(nodes map[string]*Node, views map[string]LocalView, dirty []string) (int, error) {
	sent, _, err := c.syncViews(nodes, views, dirty, nil)
	return sent, err
}

// syncViews is the shared delta-shipping core. When assignSync is
// non-nil it is called for every delta actually sent and its return
// value rides in the frame's Sync field, asking the node for a local
// check report; the per-router sync IDs are returned for collection.
func (c *Coordinator) syncViews(nodes map[string]*Node, views map[string]LocalView, dirty []string, assignSync func(router string) int) (int, map[string]int, error) {
	var routers []string
	if dirty == nil {
		for r := range views {
			routers = append(routers, r)
		}
		sort.Strings(routers)
	} else {
		routers = dirty
	}
	sent := 0
	var ids map[string]int
	var firstErr error
	for _, r := range routers {
		v, ok := views[r]
		node := nodes[r]
		if !ok || node == nil {
			continue
		}
		c.mu.Lock()
		old, had := c.lastView[r]
		c.mu.Unlock()
		d := viewDelta{Router: r}
		if !had {
			d.Full = true
			for _, e := range v.FIB {
				d.Installs = append(d.Installs, e)
			}
			sort.Slice(d.Installs, func(i, j int) bool { return prefixBefore(d.Installs[i].Prefix, d.Installs[j].Prefix) })
			d.HasIface, d.Ifaces = true, v.Ifaces
		} else {
			d.Installs, d.Removes = DiffFIB(old.FIB, v.FIB)
			if !ifacesEqual(old.Ifaces, v.Ifaces) {
				d.HasIface, d.Ifaces = true, v.Ifaces
			}
		}
		if len(d.Installs) == 0 && len(d.Removes) == 0 && !d.HasIface {
			continue
		}
		if assignSync != nil {
			d.Sync = assignSync(r)
		}
		if _, err := c.pool.send(node.Addr(), func(b []byte) []byte {
			return appendViewDelta(b, &d)
		}); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
		if d.Sync != 0 {
			if ids == nil {
				ids = map[string]int{}
			}
			ids[r] = d.Sync
		}
		c.mu.Lock()
		c.lastView[r] = v
		for k, w := range c.retained {
			if !pathAvoids(w.Path, map[string]struct{}{r: {}}) {
				delete(c.retained, k)
			}
		}
		c.mu.Unlock()
	}
	return sent, ids, firstErr
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
		b, err := json.Marshal(v.FIB)
		if err != nil {
			return 0, err
		}
		total += len(b) + 4
	}
	return total, nil
}

// BuildFleet starts one node per internal router plus a coordinator, and
// returns a teardown function.
func BuildFleet(n *network.Network, internal func(string) bool) (*Coordinator, map[string]*Node, func(), error) {
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
		if internal != nil && !internal(r.Name) {
			continue
		}
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
