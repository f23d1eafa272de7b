// Package snapshot implements §5 of the paper: assembling a *consistent*
// data-plane snapshot from per-router capture logs.
//
// A snapshot is defined by a Cut: for each router, the observed-time
// horizon up to which that router's log has been collected. Because
// collection is asynchronous, a cut can be inconsistent — Fig. 1c's
// verifier holds R2's stale FIB while R1's and R3's logs already reflect
// R2's update, so it sees a phantom loop.
//
// The consistency condition (per §5): if the snapshot includes a FIB
// update on R that depends on a received advertisement, the matching send
// on the advertising router R' must also be in the snapshot. Because every
// router applies an update to its FIB before advertising it (the ordering
// invariant the protocols maintain), the presence of R”s send guarantees
// R”s own FIB update is in its collected log prefix, and the condition
// recurses for free.
//
// The condition is checked on every collected receive from a peer inside
// the domain, with no walk of any FIB update's ancestry: which receives an
// update depends on is an inference that can miss, whether a receive's
// send is collected is not. That makes it the textbook consistent-cut
// condition — no message received and not sent — accounted per message.
// A receive's send is its place on its FIFO channel (hbr.Pair), so no
// timestamp decides which send that is. ConsistentCut accounts it over those
// pairs with no graph; Check reads it off a graph inferred over the cut,
// and ConsistentCollect extends a cut with one; both reach the same cut.
package snapshot

import (
	"slices"
	"sort"

	"hbverify/internal/capture"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/netsim"
	"hbverify/internal/trie"
)

// Cut maps each router to the observed-time horizon through which its log
// has been collected. Routers absent from the cut are fully collected.
type Cut map[string]netsim.VirtualTime

// Clone copies the cut.
func (c Cut) Clone() Cut {
	out := make(Cut, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Visible reports whether the cut collects io.
func (c Cut) Visible(io *capture.IO) bool {
	horizon, limited := c[io.Router]
	return !limited || io.Time <= horizon
}

// Collect returns the I/Os visible under the cut, preserving order.
func Collect(ios []capture.IO, cut Cut) []capture.IO {
	n := 0
	for i := range ios {
		if cut.Visible(&ios[i]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]capture.IO, 0, n)
	for i := range ios {
		if cut.Visible(&ios[i]) {
			out = append(out, ios[i])
		}
	}
	return out
}

// BuildFIBs reconstructs each router's FIB by replaying the collected FIB
// install/remove events — exactly what a verifier fed by FIB update
// streams would hold. Every router with a collected event appears, even
// with an empty FIB.
func BuildFIBs(ios []capture.IO) map[string]*trie.Trie[fib.Entry] {
	return ReplayFIBs(capture.ViewOf(ios), nil)
}

// ReplayFIBs is BuildFIBs over the events of v the cut collects (a nil cut
// collects all), read in place.
func ReplayFIBs(v capture.View, cut Cut) map[string]*trie.Trie[fib.Entry] {
	fibs := map[string]*trie.Trie[fib.Entry]{}
	Replay(fibs, v, cut)
	return fibs
}

// Replay continues a replay: it applies the FIB events of v the cut collects
// to fibs, in order, and adds an empty table for every router with a
// collected event that has none. Replaying a log's prefix and then the rest,
// under cuts that collect the same events, is ReplayFIBs of the whole.
func Replay(fibs map[string]*trie.Trie[fib.Entry], v capture.View, cut Cut) {
	for i := 0; i < v.Len(); i++ {
		io := v.At(i)
		if !cut.Visible(io) {
			continue
		}
		table := fibs[io.Router]
		if table == nil {
			table = trie.New[fib.Entry]()
			fibs[io.Router] = table
		}
		switch io.Type {
		case capture.FIBInstall:
			_ = table.Insert(io.Prefix, fib.EntryOf(io))
		case capture.FIBRemove:
			table.Delete(io.Prefix)
		}
	}
}

// Result reports a consistency check.
type Result struct {
	Consistent bool
	// Missing lists, by ID, the collected received messages whose send the
	// snapshot lacks.
	Missing []capture.IO
	// WaitFor names the routers whose logs must advance before the
	// snapshot can be verified (sorted, deduplicated).
	WaitFor []string
	// Waits counts the horizons ConsistentCut or ConsistentCollect advanced
	// on the way to this result, one per router per round of waiting.
	Waits int
	// EvictedBelow, when not zero, is the first ID a compacted log retains:
	// the FIB events below it were evicted before any replay read them, so
	// no snapshot of the log can be rebuilt and none was verified.
	EvictedBelow uint64
}

// accounted reports whether the §5 condition covers io: a received
// advertisement or withdrawal from a peer inside the domain. external
// reports routers outside it (messages from them terminate the recursion);
// it may be nil.
func accounted(io *capture.IO, external func(string) bool) bool {
	return (io.Type == capture.RecvAdvert || io.Type == capture.RecvWithdraw) &&
		(external == nil || !external(io.Peer))
}

// closure applies the §5 condition to a cut's accounted receives, taken in
// ID order: each one whose send the cut lacks leaves it open and names its
// peer as a router to wait for.
type closure struct {
	res  Result
	wait map[string]bool
}

// account records one accounted receive; sent reports whether the cut holds
// a send it matches. recv is the event as captured, read in place from a log
// or a graph, so Missing keeps a copy less the oracle fields.
func (c *closure) account(recv *capture.IO, sent bool) {
	if sent {
		return
	}
	c.res.Missing = append(c.res.Missing, recv.Stripped())
	if recv.Peer != "" {
		if c.wait == nil {
			c.wait = map[string]bool{}
		}
		c.wait[recv.Peer] = true
	}
}

func (c *closure) result() Result {
	c.res.Consistent = len(c.res.Missing) == 0
	for r := range c.wait {
		c.res.WaitFor = append(c.res.WaitFor, r)
	}
	sort.Strings(c.res.WaitFor)
	return c.res
}

// Check applies the §5 condition to a happens-before graph built over the
// collected I/Os: every accounted receive (see accounted) must have a send
// on another router among its parents, which is the one edge inference
// gives a receive. external may be nil.
//
// Every collected receive is examined, not only those in some FIB update's
// ancestry: a receive whose send is missing has no inferred parent, and the
// inferred graph need not connect the install it causes to the FIB update
// that ground truth says depends on it, so an ancestry walk can pass over it.
func Check(g *hbg.Graph, external func(string) bool) Result {
	var c closure
	for _, io := range g.Refs() {
		if !accounted(io, external) {
			continue
		}
		sent := false
		for _, pid := range g.Parents(io.ID) {
			if p, ok := g.Node(pid); ok && (p.Type == capture.SendAdvert || p.Type == capture.SendWithdraw) && p.Router != io.Router {
				sent = true
				break
			}
		}
		c.account(io, sent)
	}
	return c.result()
}

// Infer is the graph constructor ConsistentCollect uses; callers supply
// their HBR strategy (typically hbr.Rules). The slice it is called with is
// a fresh copy nothing else writes: the graph it returns may point into it
// (hbg.Graph's vertices do), so nobody writes the slice while the graph is
// in use.
type Infer func([]capture.IO) *hbg.Graph

// ConsistentCollect is ConsistentCut with a graph per cut: each cut is
// collected into a new slice given to infer (see Infer) and judged by
// Check. It returns the last of these, which the caller may then write:
// the graph judged over it is dropped. ios is only read.
func ConsistentCollect(ios []capture.IO, cut Cut, infer Infer, external func(string) bool) ([]capture.IO, Cut, Result) {
	var collected []capture.IO
	final, res := extend(cut, hiddenTimes(capture.ViewOf(ios), cut), func(c Cut) Result {
		collected = Collect(ios, c)
		return Check(infer(collected), external)
	})
	return collected, final, res
}

// ConsistentCut repeatedly extends an inconsistent cut of v — advancing the
// logs of the routers the closure names, as the §7 prototype does ("the
// verifier can wait until it receives the up-to-date HBG from R1") — until
// the snapshot is consistent or no progress is possible. It judges a cut by
// message accounting alone, no graph: sendOf[i] is the position in v of the
// send the receive at i is paired with, -1 for none (hbr.Pair, which this
// package cannot call because hbr's tests import it), and a cut is closed
// when it collects, for every accounted receive it collects, that send. A
// receive with none leaves every cut open. That is the verdict Check gives
// the graph inferred over the cut, so ConsistentCut and ConsistentCollect
// reach the same cut. Nothing is copied out of v. It returns the final cut
// and the last verdict.
//
// A receipt the first cut closes — it collects the receive and its send —
// is closed in every cut after it, since extending a cut only lifts
// horizons: it is settled once, and each round re-checks only the rest, in
// ID order. A send at or past len(v) is one v does not hold (see
// hbr.Pairing).
func ConsistentCut(v capture.View, cut Cut, sendOf []int32, external func(string) bool) (Cut, Result) {
	return ConsistentCutFrom(v, 0, nil, cut, sendOf, external)
}

// ConsistentCutFrom is ConsistentCut for a caller that has read v below
// position from: the cut collects every event there, and so does every cut
// extending it, and open lists, ascending, the positions below from of the
// receives whose send is not there too (none, or at or past from). Below
// from it reads only open's receives; it answers as ConsistentCut.
func ConsistentCutFrom(v capture.View, from int, open []int32, cut Cut, sendOf []int32, external func(string) bool) (Cut, Result) {
	type receipt struct{ recv, send *capture.IO }
	var receipts []receipt
	add := func(i int) {
		io := v.At(i)
		if !accounted(io, external) {
			return
		}
		r := receipt{recv: io}
		if s := sendOf[i]; s >= 0 && int(s) < v.Len() {
			r.send = v.At(int(s))
		}
		if r.send == nil || !cut.Visible(r.recv) || !cut.Visible(r.send) {
			receipts = append(receipts, r)
		}
	}
	for _, i := range open {
		add(int(i))
	}
	hidden := map[string][]netsim.VirtualTime{}
	for i := from; i < v.Len(); i++ {
		hide(hidden, v.At(i), cut)
		add(i)
	}
	return extend(cut, hidden, func(c Cut) Result {
		var cl closure
		for _, r := range receipts {
			if c.Visible(r.recv) {
				cl.account(r.recv, r.send != nil && c.Visible(r.send))
			}
		}
		return cl.result()
	})
}

// hiddenTimes returns, per router the cut limits, the observed times of its
// events in v the cut hides: the only horizons extending the cut can reach.
func hiddenTimes(v capture.View, cut Cut) map[string][]netsim.VirtualTime {
	hidden := map[string][]netsim.VirtualTime{}
	for i := 0; i < v.Len(); i++ {
		hide(hidden, v.At(i), cut)
	}
	return hidden
}

// hide adds io's time to hidden when the cut hides io.
func hide(hidden map[string][]netsim.VirtualTime, io *capture.IO, cut Cut) {
	if horizon, limited := cut[io.Router]; limited && io.Time > horizon {
		hidden[io.Router] = append(hidden[io.Router], io.Time)
	}
}

// extend is the waiting loop both judges share: while check finds the cut
// open, advance each router it waits for to that router's next event —
// lifting the horizon once its log is exhausted — and check again. hidden
// holds the times of the events the first cut hides (hiddenTimes); it is
// sorted in place.
func extend(cut Cut, hidden map[string][]netsim.VirtualTime, check func(Cut) Result) (Cut, Result) {
	cur := cut.Clone()
	for _, ts := range hidden {
		slices.Sort(ts)
	}
	waits := 0
	for {
		res := check(cur)
		res.Waits = waits
		if res.Consistent || len(res.WaitFor) == 0 {
			return cur, res
		}
		before := waits
		for _, router := range res.WaitFor {
			horizon, limited := cur[router]
			if !limited {
				continue
			}
			// Advance to the router's earliest event after the horizon; with
			// its log exhausted, lift the horizon entirely.
			ts := hidden[router]
			if i := sort.Search(len(ts), func(i int) bool { return ts[i] > horizon }); i < len(ts) {
				cur[router] = ts[i]
			} else {
				delete(cur, router)
			}
			waits++
		}
		if waits == before {
			return cur, res
		}
	}
}
