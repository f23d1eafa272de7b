// Distributed happens-before analysis (§5: "each router can store its own
// happens-before subgraph. Partial paths through the HBG can be passed to
// neighboring routers that can expand the paths based on their
// happens-before subgraph").
//
// Each HBGNode holds only its router's subgraph plus, for every received
// advertisement, a cross-reference to the sender's send event (which the
// sender stamped onto the message when it was transmitted). A provenance
// query walks backward through the local subgraph; when it reaches a
// receive, the partially-built path is shipped to the sending router's
// node, which keeps expanding. The coordinator ends up with the full
// root-cause chain without any node ever exporting its whole log.
//
// Queries ride the same pooled transport as verification walks: persistent
// connections, binary provenance frames (mtProv/mtProvResult), write
// deadlines and bounded retries.

package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
)

// CrossRef points from a received advertisement to the sender-side event.
type CrossRef struct {
	Router string
	SendID uint64
}

// ProvQuery is a provenance walk in flight between HBG nodes.
type ProvQuery struct {
	QueryID int
	// Cursor is the event to expand next (must live on the current node).
	Cursor uint64
	// Path accumulates the chain, fault first.
	Path []capture.IO
	Hops int
	Done bool
	Err  string
}

// HBGNode serves one router's happens-before subgraph.
type HBGNode struct {
	Router string
	Sub    *hbg.Graph
	Cross  map[uint64]CrossRef

	ln        net.Listener
	directory func(router string) (string, bool)
	resultTo  string
	pool      *pool
	wire      *wireStats
	conns     *connSet

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// StartHBGNode launches the node on 127.0.0.1.
func StartHBGNode(router string, sub *hbg.Graph, cross map[uint64]CrossRef,
	directory func(string) (string, bool), resultTo string) (*HBGNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wire := &wireStats{}
	n := &HBGNode{
		Router: router, Sub: sub, Cross: cross, ln: ln, directory: directory, resultTo: resultTo,
		wire: wire, pool: newPool(wire), conns: newConnSet(),
	}
	n.wg.Add(1)
	go n.serve()
	return n, nil
}

// Addr returns the node's listen address.
func (n *HBGNode) Addr() string { return n.ln.Addr().String() }

// Wire reports the node's transport counters.
func (n *HBGNode) Wire() (frames, bytes, retries, errors int64) {
	return n.wire.frames.Load(), n.wire.bytes.Load(), n.wire.retries.Load(), n.wire.errors.Load()
}

// Close shuts the node down, closing accepted and pooled connections so no
// reader stays parked on a persistent peer.
func (n *HBGNode) Close() error {
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

func (n *HBGNode) serve() {
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

func (n *HBGNode) dispatch(payload []byte) {
	if len(payload) < 2 || payload[0] != frameV1 || payload[1] != mtProv {
		return
	}
	r := &wireReader{b: payload[2:]}
	q := r.prov()
	if r.err == nil {
		n.HandleQuery(q)
	}
}

// HandleQuery expands the provenance chain through the local subgraph and
// forwards or finishes.
func (n *HBGNode) HandleQuery(q ProvQuery) {
	cur := q.Cursor
	for {
		q.Hops++
		if q.Hops > 1024 {
			q.Done, q.Err = true, "provenance too deep"
			n.reply(q)
			return
		}
		io, ok := n.Sub.Node(cur)
		if !ok {
			q.Done, q.Err = true, fmt.Sprintf("%s: unknown event %d", n.Router, cur)
			n.reply(q)
			return
		}
		q.Path = append(q.Path, io)
		// Crossing point: this event was received from another router.
		if ref, isRecv := n.Cross[cur]; isRecv {
			addr, ok := n.directory(ref.Router)
			if !ok {
				q.Done, q.Err = true, "no node for router "+ref.Router
				n.reply(q)
				return
			}
			q.Cursor = ref.SendID
			n.forward(addr, q)
			return
		}
		parents := n.Sub.Parents(cur)
		if len(parents) == 0 {
			q.Done = true // reached a root cause
			n.reply(q)
			return
		}
		// Follow the primary (lowest-ID) cause chain.
		cur = parents[0]
	}
}

func (n *HBGNode) forward(addr string, q ProvQuery) {
	n.sendQuery(addr, mtProv, q)
}

func (n *HBGNode) reply(q ProvQuery) {
	n.sendQuery(n.resultTo, mtProvResult, q)
}

func (n *HBGNode) sendQuery(addr string, mt byte, q ProvQuery) {
	_, _ = n.pool.send(addr, func(b []byte) []byte {
		return appendProv(b, mt, &q)
	})
}

// HBGCoordinator collects finished provenance chains.
type HBGCoordinator struct {
	ln      net.Listener
	results chan ProvQuery
	conns   *connSet
	wg      sync.WaitGroup
}

// StartHBGCoordinator launches the sink.
func StartHBGCoordinator() (*HBGCoordinator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &HBGCoordinator{ln: ln, results: make(chan ProvQuery, 64), conns: newConnSet()}
	c.wg.Add(1)
	go c.serve()
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *HBGCoordinator) Addr() string { return c.ln.Addr().String() }

// Close shuts the coordinator down.
func (c *HBGCoordinator) Close() error {
	err := c.ln.Close()
	c.conns.closeAll()
	c.wg.Wait()
	return err
}

func (c *HBGCoordinator) serve() {
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

func (c *HBGCoordinator) dispatch(payload []byte) {
	if len(payload) < 2 || payload[0] != frameV1 || payload[1] != mtProvResult {
		return
	}
	r := &wireReader{b: payload[2:]}
	q := r.prov()
	if r.err == nil {
		c.results <- q
	}
}

// Trace asks the fleet for the root-cause chain of (router, ioID). The
// returned path runs fault-first and ends at the root cause.
func (c *HBGCoordinator) Trace(nodes map[string]*HBGNode, router string, ioID uint64, timeout time.Duration) ([]capture.IO, error) {
	node := nodes[router]
	if node == nil {
		return nil, fmt.Errorf("dist: no HBG node for %q", router)
	}
	node.HandleQuery(ProvQuery{QueryID: 1, Cursor: ioID})
	select {
	case q := <-c.results:
		if q.Err != "" {
			return q.Path, fmt.Errorf("dist: %s", q.Err)
		}
		return q.Path, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("dist: provenance query timed out")
	}
}

// BuildHBGFleet splits a (centrally inferred) graph into per-router nodes.
// The cross-references come from the graph's cross-router edges — in a
// real deployment the sender's event ID rides on the wire with each
// advertisement, which our protocol messages already do.
func BuildHBGFleet(g *hbg.Graph) (*HBGCoordinator, map[string]*HBGNode, func(), error) {
	coord, err := StartHBGCoordinator()
	if err != nil {
		return nil, nil, nil, err
	}
	routers := map[string]bool{}
	for _, io := range g.Nodes() {
		routers[io.Router] = true
	}
	cross := map[string]map[uint64]CrossRef{}
	for _, e := range g.Edges() {
		from, _ := g.Node(e.From)
		to, _ := g.Node(e.To)
		if from.Router == to.Router {
			continue
		}
		if cross[to.Router] == nil {
			cross[to.Router] = map[uint64]CrossRef{}
		}
		cross[to.Router][e.To] = CrossRef{Router: from.Router, SendID: e.From}
	}
	nodes := map[string]*HBGNode{}
	var mu sync.Mutex
	directory := func(r string) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		nd, ok := nodes[r]
		if !ok {
			return "", false
		}
		return nd.Addr(), true
	}
	for r := range routers {
		node, err := StartHBGNode(r, g.Subgraph(r), cross[r], directory, coord.Addr())
		if err != nil {
			coord.Close()
			for _, nd := range nodes {
				nd.Close()
			}
			return nil, nil, nil, err
		}
		mu.Lock()
		nodes[r] = node
		mu.Unlock()
	}
	teardown := func() {
		for _, nd := range nodes {
			nd.Close()
		}
		coord.Close()
	}
	return coord, nodes, teardown, nil
}
