// Shared inference index: built once per log generation and shared by every
// worker of a rule pass — event positions sorted once by observed time,
// per-router event lists, and each list's candidate chains.
//
// The index holds no copy of an event: it sorts int32 positions in the
// caller's view, groups the events themselves by router as
// *capture.IO handles resolved once while indexing — so a rule's inner loop
// reads a candidate through one pointer, wherever the view's segments lie —
// rules emit (from, to) pairs, and the one place an event is copied is the
// graph that takes ownership of it.
//
// A rule looks for the nearest earlier event on its router that fits a
// pattern. Scanning the router's list for it visits every event in between,
// most of them about other prefixes; the chains skip those. Every event of a
// list links to the nearest earlier event of each of two chains: the events
// that carry a prefix in its prefix's bucket and are receives, RIB changes or
// FIB changes, and every other event but a send. No pattern fits a send, and
// none fits an event of the first kind whose prefix differs from the one it
// is matched for, so the two chains merged, nearest first, are the scan's
// candidates in the scan's order with only the events no pattern can fit
// left out. A bucket holds every prefix hashing to it: a collision lengthens
// a walk, and lhs.matches still compares the prefix itself.
//
// Index is immutable after construction, so any number of goroutines may
// read it concurrently.

package hbr

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
)

// Index organizes one log generation for inference. Every int32 is a
// position in ios; every list is sorted by observed time with IDs as
// tie-breaker.
type Index struct {
	ios   capture.View // the caller's view: read, never written or copied
	order []int32      // every indexed position
	lists [][]*capture.IO
	// links[l][rank] is the event at lists[l][rank]'s place on the chains.
	links [][]link
	// where[p] locates ios.At(p) in its router's list, recorded while
	// indexing so no rule has to search for the event it is matching.
	where []struct{ list, rank int32 }
}

// link holds the ranks in its router's list of the nearest earlier event of
// each chain, -1 for none: pfx of the receives, RIB changes and FIB changes
// in the bucket of the event's prefix (none when it carries no prefix), other
// of every event that is neither such an event nor a send.
type link struct{ pfx, other int32 }

// bucketBits sizes the prefix chains per router, 1<<bucketBits of them, so
// the few hundred prefixes a router's log names rarely share one.
const bucketBits = 9

// bucketOf hashes a prefix to its chain: the top bits of two
// multiplicative hashes, which every bit of the address and length reaches.
func bucketOf(p netip.Prefix) int {
	a := p.Addr().As16()
	x := binary.BigEndian.Uint64(a[:8])*0x9e3779b97f4a7c15 ^ (binary.BigEndian.Uint64(a[8:])+uint64(p.Bits()))*0xc2b2ae3d27d4eb4f
	return int(x >> (64 - bucketBits))
}

// chained reports whether io is on its prefix's chain rather than the other.
// The chain build reads Prefix.IsValid, not IO.HasPrefix, whose value
// receiver copies the event.
func chained(io *capture.IO) bool {
	switch io.Type {
	case capture.RecvAdvert, capture.RecvWithdraw, capture.RIBInstall, capture.RIBRemove, capture.FIBInstall, capture.FIBRemove:
		return io.Prefix.IsValid()
	}
	return false
}

// newIndex indexes the given positions of ios — nil for all of them; the
// position slice is kept and sorted in place. A rule run over a partial
// index is right for the events whose candidates were all indexed; which
// those are is the caller's argument (extend).
func newIndex(ios capture.View, order []int32) *Index {
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
	}
	before := func(a, b int32) int {
		x, y := ios.At(int(a)), ios.At(int(b))
		return cmp.Or(cmp.Compare(x.Time, y.Time), cmp.Compare(x.ID, y.ID))
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
	idx.chain()
	return idx
}

// chain links every listed event to the nearest earlier event of each chain.
func (idx *Index) chain() {
	links := make([]link, len(idx.order))
	idx.links = make([][]link, len(idx.lists))
	// heads[b] is one past the index in links of bucket b's latest event,
	// which is on the current list only when it is past the list's start:
	// no list resets the table.
	var heads [1 << bucketBits]int32
	off := int32(0)
	for l, evs := range idx.lists {
		ls := links[off : off+int32(len(evs))]
		idx.links[l] = ls
		head := func(b int) int32 { return max(heads[b]-1-off, -1) }
		other := int32(-1)
		for r, e := range evs {
			ls[r] = link{pfx: -1, other: other}
			switch {
			case chained(e):
				b := bucketOf(e.Prefix)
				ls[r].pfx, heads[b] = head(b), off+int32(r)+1
			case e.Type == capture.SendAdvert || e.Type == capture.SendWithdraw:
				if e.Prefix.IsValid() {
					ls[r].pfx = head(bucketOf(e.Prefix))
				}
			default:
				other = int32(r)
			}
		}
		off += int32(len(evs))
	}
}

// Len reports the number of indexed I/Os.
func (idx *Index) Len() int { return len(idx.order) }

// at returns the event at position p.
func (idx *Index) at(p int32) *capture.IO { return idx.ios.At(int(p)) }

// precedingOnRouter visits the events on position p's router that were
// observed at or before it (excluding itself), nearest first, stopping
// after window, and returns how many it visited.
func (idx *Index) precedingOnRouter(p int32, window time.Duration, visit func(*capture.IO) bool) int {
	io, at := idx.at(p), idx.where[p]
	evs := idx.lists[at.list]
	n := 0
	for i := at.rank - 1; i >= 0; i-- {
		e := evs[i]
		if window > 0 && io.Time.Sub(e.Time) > window {
			break
		}
		n++
		if !visit(e) {
			break
		}
	}
	return n
}

// nearest returns the nearest event on position p's router observed at or
// before it (excluding itself) and within window that t matches as a cause
// of it — nil for none — and how many candidates it visited. It walks p's
// two chains merged, nearest first, which hold every event t can match
// except an OSPF LSA re-flooded by Detail (lhsReflood scans instead).
func (idx *Index) nearest(p int32, t lhs, window time.Duration) (*capture.IO, int) {
	io, at := idx.at(p), idx.where[p]
	evs, links := idx.lists[at.list], idx.links[at.list]
	a, b := links[at.rank].pfx, links[at.rank].other
	n := 0
	for a >= 0 || b >= 0 {
		c := max(a, b)
		e := evs[c]
		if window > 0 && io.Time.Sub(e.Time) > window {
			break
		}
		n++
		if t.matches(io, e) {
			return e, n
		}
		if c == a {
			a = links[a].pfx
		} else {
			b = links[b].other
		}
	}
	return nil, n
}

// parallelMinEvents is the log size below which sharded inference is not
// worth the goroutine overhead.
const parallelMinEvents = 2048

// shardChunk is the unit of work one worker claims at a time; contiguous
// chunks keep the per-event scans cache-friendly.
const shardChunk = 256

// A rule derives one event's in-edges: it appends to out every
// happens-before edge whose To is the event at position p, and nothing else,
// and adds the candidates it visited to *visits.
type rule func(p int32, out []hbg.Edge, visits *int) []hbg.Edge

// runFrom applies fn to the indexed events from rank on in the observed
// order and returns the edges, one buffer per shardChunk of that order, and
// the candidates visited.
// Large logs are sharded across GOMAXPROCS workers that claim chunks from a
// shared cursor. Which worker fills a buffer varies; what it holds does
// not, because every edge is derived from exactly one event (its To side) —
// so the buffers in chunk order are the same edge sequence at any worker
// count: nothing to merge.
func (idx *Index) runFrom(rank int, fn rule) ([][]hbg.Edge, int64) {
	order := idx.order[rank:]
	n := len(order)
	bufs := make([][]hbg.Edge, (n+shardChunk-1)/shardChunk)
	var visited atomic.Int64
	fill := func(c int) {
		chunk := order[c*shardChunk : min(n, (c+1)*shardChunk)]
		buf := make([]hbg.Edge, 0, len(chunk)+len(chunk)/4)
		visits := 0
		for _, p := range chunk {
			buf = fn(p, buf, &visits)
		}
		bufs[c] = buf
		visited.Add(int64(visits))
	}
	workers := min(runtime.GOMAXPROCS(0), len(bufs))
	if n < parallelMinEvents || workers <= 1 {
		for c := range bufs {
			fill(c)
		}
		return bufs, visited.Load()
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
	return bufs, visited.Load()
}

// graph assembles a full pass's output: a vertex pointing at every event of
// the view, then the edges in chunk order, under one lock. Only an index of
// every position has a graph.
func (idx *Index) graph(edges [][]hbg.Edge) *hbg.Graph {
	g := hbg.New()
	g.Apply(hbg.Batch{Nodes: idx.ios, Edges: edges})
	return g
}
