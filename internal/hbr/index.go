// Shared inference index: built once per log generation and shared by every
// strategy — event positions sorted once by observed time, per-router
// event lists, and a keyed send-lookup table so matchSendForRecv touches
// only the handful of candidates with the same (sender, target, protocol,
// advert-kind, prefix|detail) signature.
//
// The index holds no copy of an event: it sorts int32 positions in the
// caller's view, groups the events themselves by router and send key as
// *capture.IO handles resolved once while indexing — so a rule's inner loop
// reads a candidate through one pointer, wherever the view's segments lie —
// strategies emit (from, to, confidence) triples, and the one place an event
// is copied is the graph that takes ownership of it.
//
// Index is immutable after construction, so any number of strategies (and
// any number of goroutines inside one strategy) may read it concurrently.

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
	sends map[sendKey][]*capture.IO
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
		sends: map[sendKey][]*capture.IO{},
	}
	before := func(a, b int32) int {
		x, y := ios.At(int(a)), ios.At(int(b))
		if c := cmp.Compare(x.Time, y.Time); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	}
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
		if (io.Type == capture.SendAdvert || io.Type == capture.SendWithdraw) && io.Time >= sendFloor {
			k := keyFor(io, io.Router, io.Peer)
			idx.sends[k] = append(idx.sends[k], io)
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

// swapSendMatch is the scenario harness's injectable fast-matcher bug:
// when set, matchSendForRecv picks the furthest in-window candidate
// instead of the nearest — exactly the kind of silent tie-breaking drift
// the infer-fast-vs-reference oracle exists to catch.
var swapSendMatch atomic.Bool

// SetSwapSendMatchBug toggles the injected matcher bug (test harness only).
func SetSwapSendMatchBug(on bool) { swapSendMatch.Store(on) }

// matchSendForRecv finds the sender-side event for a received
// advertisement: a send at recv.Peer targeting recv.Router, same protocol
// and prefix (or same Detail for prefix-less LSAs), nearest in |observed
// time| within window; nil when there is none. Clock skew is why this uses
// absolute distance.
//
// The candidate list for recv's key is a time-sorted subsequence of the
// peer's events, so the window bounds are found by binary search and only
// in-window candidates are visited; the nearest-with-strictly-smaller-
// distance rule over that ordered slice reproduces the reference scan's
// tie-breaking exactly.
func (idx *Index) matchSendForRecv(recv *capture.IO, window time.Duration) *capture.IO {
	cands := idx.sends[keyFor(recv, recv.Peer, recv.Router)]
	if len(cands) == 0 {
		return nil
	}
	lo, hi := 0, len(cands)
	if window > 0 {
		minT, maxT := recv.Time-netsim.VirtualTime(window), recv.Time+netsim.VirtualTime(window)
		lo = sort.Search(len(cands), func(i int) bool { return cands[i].Time >= minT })
		hi = sort.Search(len(cands), func(i int) bool { return cands[i].Time > maxT })
	}
	var best *capture.IO
	var bestDist time.Duration
	bug := swapSendMatch.Load()
	for _, cand := range cands[lo:hi] {
		d := recv.Time.Sub(cand.Time)
		if d < 0 {
			d = -d
		}
		if window > 0 && d > window {
			continue
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
type rule func(p int32, out []hbg.EdgeConf) []hbg.EdgeConf

// run applies fn to every indexed event.
func (idx *Index) run(fn rule) [][]hbg.EdgeConf { return idx.runFrom(0, fn) }

// runFrom applies fn to the indexed events from rank on in the observed
// order and returns the edges, one buffer per shardChunk of that order.
// Large logs are sharded across GOMAXPROCS workers that claim chunks from a
// shared cursor. Which worker fills a buffer varies; what it holds does
// not, because every edge is derived from exactly one event (its To side) —
// so the buffers in chunk order are the same edge sequence at any worker
// count: nothing to merge.
func (idx *Index) runFrom(rank int, fn rule) [][]hbg.EdgeConf {
	order := idx.order[rank:]
	n := len(order)
	bufs := make([][]hbg.EdgeConf, (n+shardChunk-1)/shardChunk)
	fill := func(c int) {
		chunk := order[c*shardChunk : min(n, (c+1)*shardChunk)]
		buf := make([]hbg.EdgeConf, 0, len(chunk)+len(chunk)/4)
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
func (idx *Index) runAt(positions []int32, fn rule) []hbg.EdgeConf {
	var out []hbg.EdgeConf
	for _, p := range positions {
		out = fn(p, out)
	}
	return out
}

// graph assembles a full pass's output: every event of the view copied in
// as a vertex the graph owns, then the edges in chunk order, under one lock.
// Only an index of every position has a graph.
func (idx *Index) graph(edges [][]hbg.EdgeConf) *hbg.Graph {
	g := hbg.New()
	g.Apply(hbg.Batch{Nodes: idx.ios, Edges: edges})
	return g
}

// IndexInferrer is implemented by strategies that can run over a shared
// pre-built Index instead of building their own.
type IndexInferrer interface {
	Strategy
	InferIndex(idx *Index) *hbg.Graph
}

// InferIndexed runs s over idx, using the shared-index fast path when the
// strategy supports it and falling back to a plain Infer otherwise.
func InferIndexed(s Strategy, idx *Index) *hbg.Graph {
	if ii, ok := s.(IndexInferrer); ok {
		return ii.InferIndex(idx)
	}
	// A strategy from outside this package reads a flat slice: a copy of
	// the view, made for it alone.
	return s.Infer(idx.ios.Flatten())
}

// InferAll builds one Index over ios and runs every strategy over it
// concurrently, returning the graphs in strategy order. This is the
// comparison-experiment fast path: one sort, one send table, N strategies.
func InferAll(ios []capture.IO, strategies []Strategy) []*hbg.Graph {
	idx := NewIndex(ios)
	out := make([]*hbg.Graph, len(strategies))
	var wg sync.WaitGroup
	for i, s := range strategies {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = InferIndexed(s, idx)
		}()
	}
	wg.Wait()
	return out
}
