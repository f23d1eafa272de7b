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
	"sync"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
	"hbverify/internal/wire"
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
	endpoint
	Router string
	Sub    *hbg.Graph
	Cross  map[uint64]CrossRef

	directory func(router string) (string, bool)
	resultTo  string
}

// StartHBGNode launches the node on 127.0.0.1.
func StartHBGNode(router string, sub *hbg.Graph, cross map[uint64]CrossRef,
	directory func(string) (string, bool), resultTo string) (*HBGNode, error) {
	n := &HBGNode{Router: router, Sub: sub, Cross: cross, directory: directory, resultTo: resultTo}
	if err := n.listen(n.handle); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *HBGNode) handle(mt byte, r *wire.Reader) {
	if mt != mtProv {
		return
	}
	if q := readProv(r); r.Err() == nil {
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

// HBGCoordinator collects finished provenance chains. Results are routed
// to the submitting Trace call by QueryID, so concurrent traces are safe and
// a result nobody waits for is dropped.
type HBGCoordinator struct {
	endpoint

	mu      sync.Mutex
	nextID  int
	pending map[int]chan<- ProvQuery
}

// StartHBGCoordinator launches the sink.
func StartHBGCoordinator() (*HBGCoordinator, error) {
	c := &HBGCoordinator{pending: map[int]chan<- ProvQuery{}}
	if err := c.listen(c.handle); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *HBGCoordinator) handle(mt byte, r *wire.Reader) {
	if mt != mtProvResult {
		return
	}
	q := readProv(r)
	if r.Err() != nil {
		return
	}
	c.mu.Lock()
	ch := c.pending[q.QueryID]
	delete(c.pending, q.QueryID)
	c.mu.Unlock()
	if ch != nil {
		ch <- q // one slot per query: never blocks
	}
}

// Trace asks the fleet for the root-cause chain of (router, ioID). The
// returned path runs fault-first and ends at the root cause.
func (c *HBGCoordinator) Trace(nodes map[string]*HBGNode, router string, ioID uint64, timeout time.Duration) ([]capture.IO, error) {
	node := nodes[router]
	if node == nil {
		return nil, fmt.Errorf("dist: no HBG node for %q", router)
	}
	ch := make(chan ProvQuery, 1)
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	node.HandleQuery(ProvQuery{QueryID: id, Cursor: ioID})
	select {
	case q := <-ch:
		if q.Err != "" {
			return q.Path, fmt.Errorf("dist: %s", q.Err)
		}
		return q.Path, nil
	case <-time.After(timeout):
		// Reclaim the ID so a late result is dropped.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
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
