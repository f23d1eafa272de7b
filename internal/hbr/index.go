// Shared inference index: built once per log generation and shared by every
// worker of a rule pass — event positions sorted once by observed time,
// per-router event lists, and a keyed send table (sendTable) so
// matchSendForRecv touches only the handful of candidates with the same
// (sender, target, protocol, advert-kind, prefix|detail) signature.
//
// The index holds no copy of an event: it sorts int32 positions in the
// caller's view, groups the events themselves by router and send key as
// *capture.IO handles resolved once while indexing — so a rule's inner loop
// reads a candidate through one pointer, wherever the view's segments lie —
// rules emit (from, to) pairs, and the one place an event is copied is the
// graph that takes ownership of it.
//
// Index is immutable after construction, so any number of goroutines may
// read it concurrently.

package hbr

import (
	"cmp"
	"math"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/fault"
	"hbverify/internal/hbg"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// sendKey identifies a class of send events some recv could match: the
// sending router, the target router, protocol, advert-vs-withdraw, and
// either the prefix (route-carrying sends) or the Detail (prefix-less
// LSAs). The prefix/detail split mirrors matchSendForRecv's predicate: a
// prefix on either side forces prefix equality, otherwise Details must
// agree.
type sendKey struct {
	sender   string
	target   string
	proto    route.Protocol
	withdraw bool
	prefix   netip.Prefix
	detail   string
}

// keyFor builds the send-table key of a message io records: sent by sender
// to target. A send files itself under (its router, its peer); a received
// advert/withdraw looks up (its peer, its router).
func keyFor(io *capture.IO, sender, target string) sendKey {
	k := sendKey{
		sender:   sender,
		target:   target,
		proto:    io.Proto,
		withdraw: io.Type == capture.SendWithdraw || io.Type == capture.RecvWithdraw,
	}
	if io.HasPrefix() {
		k.prefix = io.Prefix
	} else {
		k.detail = io.Detail
	}
	return k
}

// sendTable files sends by key, each list in observed-time order with IDs as
// tie-breaker: the cross-router rule's one data structure, which an Index
// matches receives against and Sends accounts them with.
type sendTable map[sendKey][]*capture.IO

func isSend(io *capture.IO) bool {
	return io.Type == capture.SendAdvert || io.Type == capture.SendWithdraw
}

// file appends a send to its key's list; the caller keeps the lists ordered.
func (t sendTable) file(send *capture.IO) {
	k := keyFor(send, send.Router, send.Peer)
	t[k] = append(t[k], send)
}

// within returns the sends a received message could have been: a send at
// recv.Peer targeting recv.Router with recv's key, observed within window of
// it either side (all of them for a zero window), in the table's order. The
// list for recv's key is a time-sorted subsequence of the peer's events, so
// the window's bounds are two binary searches.
func (t sendTable) within(recv *capture.IO, window time.Duration) []*capture.IO {
	cands := t[keyFor(recv, recv.Peer, recv.Router)]
	if window <= 0 || len(cands) == 0 {
		return cands
	}
	minT, maxT := recv.Time-netsim.VirtualTime(window), recv.Time+netsim.VirtualTime(window)
	lo := sort.Search(len(cands), func(i int) bool { return cands[i].Time >= minT })
	hi := sort.Search(len(cands), func(i int) bool { return cands[i].Time > maxT })
	return cands[lo:hi]
}

// Sends is the cross-router rule without a graph: a view's send table, for
// accounting a cut's receives by message (snapshot.ConsistentCut) where
// inference would give each one its parents.
type Sends struct {
	table  sendTable
	window time.Duration
}

// Sends files every send of v, read in place, under the rule's CrossWindow.
func (r Rules) Sends(v capture.View) *Sends {
	_, _, xw := r.windows()
	s := &Sends{table: sendTable{}, window: xw}
	for i := 0; i < v.Len(); i++ {
		if io := v.At(i); isSend(io) {
			s.table.file(io)
		}
	}
	// The view is in append order, which observed times follow only up to
	// clock skew.
	for _, l := range s.table {
		if !slices.IsSortedFunc(l, byTimeID) {
			slices.SortStableFunc(l, byTimeID)
		}
	}
	return s
}

// Earliest reports the observed time of the earliest send the cross-router
// rule could match recv to, false when the view holds none. A cut that
// collects recv gives it a send parent exactly when it also collects
// recv.Peer's log through that time: the sends the rule can match all lie
// on recv.Peer, and a cut collects a router's log by observed time.
func (s *Sends) Earliest(recv *capture.IO) (netsim.VirtualTime, bool) {
	if c := s.table.within(recv, s.window); len(c) > 0 {
		return c[0].Time, true
	}
	return 0, false
}

func byTimeID(x, y *capture.IO) int {
	if c := cmp.Compare(x.Time, y.Time); c != 0 {
		return c
	}
	return cmp.Compare(x.ID, y.ID)
}

// Index organizes one log generation for inference. Every int32 is a
// position in ios; every list is sorted by observed time with IDs as
// tie-breaker.
type Index struct {
	ios   capture.View // the caller's view: read, never written or copied
	order []int32      // every indexed position
	lists [][]*capture.IO
	// where[p] locates ios.At(p) in its router's list, recorded while
	// indexing so no rule has to search for the event it is matching.
	where []struct{ list, rank int32 }
	sends sendTable
}

// NewIndex indexes ios. The slice is retained and must not be modified
// while the index is in use.
func NewIndex(ios []capture.IO) *Index { return newIndex(capture.ViewOf(ios), nil, math.MinInt64) }

// newIndex indexes the given positions of ios — nil for all of them; the
// position slice is kept and sorted in place — and files into the send table
// only the sends observed at or after sendFloor.
// A rule run over a partial index is right for the events whose candidates
// were all indexed; which those are is the caller's argument (extend, derive).
func newIndex(ios capture.View, order []int32, sendFloor netsim.VirtualTime) *Index {
	if order == nil {
		order = make([]int32, ios.Len())
		for i := range order {
			order[i] = int32(i)
		}
	}
	idx := &Index{
		ios:   ios,
		order: order,
		where: make([]struct{ list, rank int32 }, ios.Len()),
		sends: sendTable{},
	}
	before := func(a, b int32) int { return byTimeID(ios.At(int(a)), ios.At(int(b))) }
	// A capture log is appended in true-time order and observed times are
	// that plus bounded skew: mostly sorted already, often entirely.
	if !slices.IsSortedFunc(idx.order, before) {
		slices.SortStableFunc(idx.order, before)
	}
	routers := map[string]int32{}
	var count []int32
	for _, p := range idx.order {
		io := ios.At(int(p))
		l, ok := routers[io.Router]
		if !ok {
			l = int32(len(count))
			routers[io.Router] = l
			count = append(count, 0)
		}
		idx.where[p].list, idx.where[p].rank = l, count[l]
		count[l]++
		if isSend(io) && io.Time >= sendFloor {
			idx.sends.file(io)
		}
	}
	// The router lists share one array, laid out by the counts.
	all := make([]*capture.IO, len(idx.order))
	for _, n := range count {
		idx.lists, all = append(idx.lists, all[:n:n]), all[n:]
	}
	for _, p := range idx.order {
		at := idx.where[p]
		idx.lists[at.list][at.rank] = ios.At(int(p))
	}
	return idx
}

// Len reports the number of indexed I/Os.
func (idx *Index) Len() int { return len(idx.order) }

// at returns the event at position p.
func (idx *Index) at(p int32) *capture.IO { return idx.ios.At(int(p)) }

// precedingOnRouter visits the events on position p's router that were
// observed at or before it (excluding itself), nearest first, stopping
// after window.
func (idx *Index) precedingOnRouter(p int32, window time.Duration, visit func(*capture.IO) bool) {
	io, at := idx.at(p), idx.where[p]
	evs := idx.lists[at.list]
	for i := at.rank - 1; i >= 0; i-- {
		e := evs[i]
		if window > 0 && io.Time.Sub(e.Time) > window {
			return
		}
		if !visit(e) {
			return
		}
	}
}

// matchSendForRecv finds the sender-side event for a received
// advertisement: of the sends within window of it (sendTable.within), the
// nearest in |observed time|; nil when there is none. Clock skew is why this
// uses absolute distance. The nearest-with-strictly-smaller-distance rule
// over the time-ordered candidates reproduces the reference scan's
// tie-breaking exactly.
func (idx *Index) matchSendForRecv(recv *capture.IO, window time.Duration) *capture.IO {
	var best *capture.IO
	var bestDist time.Duration
	bug := fault.On(fault.SwapSendMatch)
	for _, cand := range idx.sends.within(recv, window) {
		d := recv.Time.Sub(cand.Time)
		if d < 0 {
			d = -d
		}
		take := best == nil || d < bestDist
		if bug {
			take = best == nil || d >= bestDist
		}
		if take {
			best, bestDist = cand, d
		}
	}
	return best
}

// parallelMinEvents is the log size below which sharded inference is not
// worth the goroutine overhead.
const parallelMinEvents = 2048

// shardChunk is the unit of work one worker claims at a time; contiguous
// chunks keep the per-event scans cache-friendly.
const shardChunk = 256

// A rule derives one event's in-edges: it appends to out every
// happens-before edge whose To is the event at position p, and nothing else.
type rule func(p int32, out []hbg.Edge) []hbg.Edge

// run applies fn to every indexed event.
func (idx *Index) run(fn rule) [][]hbg.Edge { return idx.runFrom(0, fn) }

// runFrom applies fn to the indexed events from rank on in the observed
// order and returns the edges, one buffer per shardChunk of that order.
// Large logs are sharded across GOMAXPROCS workers that claim chunks from a
// shared cursor. Which worker fills a buffer varies; what it holds does
// not, because every edge is derived from exactly one event (its To side) —
// so the buffers in chunk order are the same edge sequence at any worker
// count: nothing to merge.
func (idx *Index) runFrom(rank int, fn rule) [][]hbg.Edge {
	order := idx.order[rank:]
	n := len(order)
	bufs := make([][]hbg.Edge, (n+shardChunk-1)/shardChunk)
	fill := func(c int) {
		chunk := order[c*shardChunk : min(n, (c+1)*shardChunk)]
		buf := make([]hbg.Edge, 0, len(chunk)+len(chunk)/4)
		for _, p := range chunk {
			buf = fn(p, buf)
		}
		bufs[c] = buf
	}
	workers := min(runtime.GOMAXPROCS(0), len(bufs))
	if n < parallelMinEvents || workers <= 1 {
		for c := range bufs {
			fill(c)
		}
		return bufs
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(cursor.Add(1)) - 1; c < len(bufs); c = int(cursor.Add(1)) - 1 {
				fill(c)
			}
		}()
	}
	wg.Wait()
	return bufs
}

// runAt applies fn to the events at the given positions only, in that order:
// what run would have derived for them.
func (idx *Index) runAt(positions []int32, fn rule) []hbg.Edge {
	var out []hbg.Edge
	for _, p := range positions {
		out = fn(p, out)
	}
	return out
}

// graph assembles a full pass's output: every event of the view copied in
// as a vertex the graph owns, then the edges in chunk order, under one lock.
// Only an index of every position has a graph.
func (idx *Index) graph(edges [][]hbg.Edge) *hbg.Graph {
	g := hbg.New()
	g.Apply(hbg.Batch{Nodes: idx.ios, Edges: edges})
	return g
}
