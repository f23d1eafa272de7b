// Package snapshot implements §5 of the paper: assembling a *consistent*
// data-plane snapshot from per-router capture logs using the happens-before
// graph.
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
package snapshot

import (
	"net/netip"
	"slices"
	"sort"

	"hbverify/internal/capture"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/netsim"
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

// Hidden returns the IDs of the events of v the cut does not collect,
// ascending: the cut as hbr.Incremental.Cached derives its graph.
func Hidden(v capture.View, cut Cut) []uint64 {
	var hidden []uint64
	for i := 0; i < v.Len(); i++ {
		if io := v.At(i); !cut.Visible(io) {
			hidden = append(hidden, io.ID)
		}
	}
	return hidden
}

// BuildFIBs reconstructs each router's FIB by replaying the collected FIB
// install/remove events — exactly what a verifier fed by FIB update
// streams would hold. Every router with a collected event appears, even
// with an empty FIB.
func BuildFIBs(ios []capture.IO) map[string]map[netip.Prefix]fib.Entry {
	return ReplayFIBs(capture.ViewOf(ios), nil)
}

// ReplayFIBs is BuildFIBs over the events of v the cut collects (a nil cut
// collects all), read in place.
func ReplayFIBs(v capture.View, cut Cut) map[string]map[netip.Prefix]fib.Entry {
	out := map[string]map[netip.Prefix]fib.Entry{}
	for i := 0; i < v.Len(); i++ {
		io := v.At(i)
		if !cut.Visible(io) {
			continue
		}
		table := out[io.Router]
		if table == nil {
			table = map[netip.Prefix]fib.Entry{}
			out[io.Router] = table
		}
		switch io.Type {
		case capture.FIBInstall:
			e := fib.Entry{Prefix: io.Prefix, NextHop: io.NextHop, Proto: io.Proto}
			if len(io.NextHops) > 1 {
				e.NextHops = append([]netip.Addr(nil), io.NextHops...)
			}
			table[io.Prefix] = e
		case capture.FIBRemove:
			delete(table, io.Prefix)
		}
	}
	return out
}

// Result reports a consistency check.
type Result struct {
	Consistent bool
	// Missing lists received advertisements whose sender-side output is
	// absent from the snapshot.
	Missing []capture.IO
	// WaitFor names the routers whose logs must advance before the
	// snapshot can be verified (sorted, deduplicated).
	WaitFor []string
}

// Check applies the §5 condition to a happens-before graph built over the
// collected I/Os. external reports routers outside the administrative
// domain (updates received from them terminate the recursion); it may be
// nil.
//
// It is one traversal of the graph: the FIB updates are taken in ID order
// and each contributes the ancestors no earlier one reached, so every
// received advertisement in some FIB update's provenance is examined once,
// in the order a per-update provenance query would first meet it.
func Check(g *hbg.Graph, external func(string) bool) Result {
	res := Result{Consistent: true}
	var fibs []uint64
	for _, io := range g.Refs() {
		if io.Type == capture.FIBInstall || io.Type == capture.FIBRemove {
			fibs = append(fibs, io.ID)
		}
	}
	waitSet := map[string]bool{}
	for _, anc := range g.Ancestry(fibs) {
		if anc.Type != capture.RecvAdvert && anc.Type != capture.RecvWithdraw {
			continue
		}
		if external != nil && external(anc.Peer) {
			continue
		}
		hasSend := false
		for _, pid := range g.Parents(anc.ID) {
			p, ok := g.Node(pid)
			if ok && (p.Type == capture.SendAdvert || p.Type == capture.SendWithdraw) && p.Router != anc.Router {
				hasSend = true
				break
			}
		}
		if !hasSend {
			res.Consistent = false
			res.Missing = append(res.Missing, *anc)
			if anc.Peer != "" {
				waitSet[anc.Peer] = true
			}
		}
	}
	for r := range waitSet {
		res.WaitFor = append(res.WaitFor, r)
	}
	sort.Strings(res.WaitFor)
	return res
}

// Infer is the graph constructor ConsistentCollect uses; callers supply
// their HBR strategy (typically hbr.Rules). The slice it is called with is
// the callee's: a fresh copy nothing else reads until Infer returns, whose
// events it may modify in place — strip of oracle fields, say.
type Infer func([]capture.IO) *hbg.Graph

// ConsistentCollect is ConsistentCut over a slice, each cut collected into a
// new slice that infer owns for the call (see Infer). It returns the last of
// these, as infer left it — stripped, if infer strips. ios is only read.
func ConsistentCollect(ios []capture.IO, cut Cut, infer Infer, external func(string) bool) ([]capture.IO, Cut, Result) {
	var collected []capture.IO
	final, res := ConsistentCut(capture.ViewOf(ios), cut, func(c Cut) *hbg.Graph {
		collected = Collect(ios, c)
		return infer(collected)
	}, external)
	return collected, final, res
}

// ConsistentCut repeatedly extends an inconsistent cut of v — advancing the
// logs of the routers named by Check's WaitFor set, as the §7 prototype does
// ("the verifier can wait until it receives the up-to-date HBG from R1") —
// until the snapshot is consistent or no progress is possible. infer builds
// the graph of what a cut collects; nothing here copies an event out of v.
// It returns the final cut and the last check.
func ConsistentCut(v capture.View, cut Cut, infer func(Cut) *hbg.Graph, external func(string) bool) (Cut, Result) {
	cur := cut.Clone()
	// times holds, per router waited on so far, the observed times of its
	// events in ascending order.
	times := map[string][]netsim.VirtualTime{}
	for {
		res := Check(infer(cur), external)
		if res.Consistent || len(res.WaitFor) == 0 {
			return cur, res
		}
		progressed := false
		for _, router := range res.WaitFor {
			horizon, limited := cur[router]
			if !limited {
				continue
			}
			ts, ok := times[router]
			if !ok {
				for i := 0; i < v.Len(); i++ {
					if io := v.At(i); io.Router == router {
						ts = append(ts, io.Time)
					}
				}
				slices.Sort(ts)
				times[router] = ts
			}
			// Advance to the router's earliest event after the horizon; with
			// its log exhausted, lift the horizon entirely.
			if i := sort.Search(len(ts), func(i int) bool { return ts[i] > horizon }); i < len(ts) {
				cur[router] = ts[i]
			} else {
				delete(cur, router)
			}
			progressed = true
		}
		if !progressed {
			return cur, res
		}
	}
}

// CutAt builds a uniform cut placing every listed router's horizon at t.
func CutAt(routers []string, t netsim.VirtualTime) Cut {
	c := Cut{}
	for _, r := range routers {
		c[r] = t
	}
	return c
}
