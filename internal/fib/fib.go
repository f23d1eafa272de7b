// Package fib implements a router's forwarding information base. Routing
// protocols offer candidate routes; the table arbitrates by administrative
// distance (then protocol metric), installs the winner, and records
// fib-install / fib-remove I/Os through the router's capture recorder —
// these are exactly the "FIB updates" the paper's verifier consumes.
//
// An entry is what its FIB I/O records, so replaying a router's FIB I/Os
// rebuilds its table exactly. A Table is one Reader; a FIB held by value
// (a snapshot, a replay, a node's view) is another, and Diff compares any
// two in place.
package fib

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"hbverify/internal/capture"
	"hbverify/internal/route"
	"hbverify/internal/trie"
)

// Entry is an installed forwarding entry: exactly what its FIB I/O
// records. Multipath (ECMP) entries carry the full equal-cost next-hop set
// in NextHops, sorted and deduplicated, with NextHop aliasing the lowest
// member; single-path entries leave NextHops nil.
type Entry struct {
	Prefix  netip.Prefix
	NextHop netip.Addr // invalid => directly delivered
	// NextHops is the sorted equal-cost next-hop set for ECMP entries
	// (len >= 2, NextHops[0] == NextHop); nil for single-path entries.
	NextHops []netip.Addr
	Proto    route.Protocol
}

// EntryOf is the entry a FIB install records: the inverse of the table's
// emit.
func EntryOf(io *capture.IO) Entry {
	e := Entry{Prefix: io.Prefix, NextHop: io.NextHop, Proto: io.Proto}
	if len(io.NextHops) > 1 {
		e.NextHops = append([]netip.Addr(nil), io.NextHops...)
	}
	return e
}

func (e Entry) String() string {
	nh := "direct"
	switch {
	case len(e.NextHops) > 1:
		parts := make([]string, len(e.NextHops))
		for i, h := range e.NextHops {
			parts[i] = h.String()
		}
		nh = strings.Join(parts, "|")
	case e.NextHop.IsValid():
		nh = e.NextHop.String()
	}
	return fmt.Sprintf("%s via %s (%s)", e.Prefix, nh, e.Proto)
}

// HopCount returns the number of next hops the entry forwards over (0 for
// directly delivered entries).
func (e Entry) HopCount() int {
	if len(e.NextHops) > 0 {
		return len(e.NextHops)
	}
	if e.NextHop.IsValid() {
		return 1
	}
	return 0
}

// Hop returns the i-th next hop in canonical (sorted) order. Together with
// HopCount it lets walkers iterate the set without allocating.
func (e Entry) Hop(i int) netip.Addr {
	if len(e.NextHops) > 0 {
		return e.NextHops[i]
	}
	return e.NextHop
}

// HopSet returns the entry's full next-hop set (nil for direct entries).
func (e Entry) HopSet() []netip.Addr {
	if len(e.NextHops) > 0 {
		return e.NextHops
	}
	if e.NextHop.IsValid() {
		return []netip.Addr{e.NextHop}
	}
	return nil
}

// Equal reports whether two entries are identical, including the full
// next-hop set. Entry is not comparable with == (NextHops is a slice);
// every comparison site must go through Equal.
func (e Entry) Equal(o Entry) bool {
	return e.Prefix == o.Prefix && e.NextHop == o.NextHop && e.Proto == o.Proto &&
		slices.Equal(e.NextHops, o.NextHops)
}

// Reader is a FIB read in place: longest-prefix match, exact match, and a
// walk of every entry in prefix order.
type Reader interface {
	Lookup(dst netip.Addr) (Entry, bool)
	Exact(p netip.Prefix) (Entry, bool)
	Walk(fn func(netip.Prefix, Entry) bool)
}

// Diff returns what turns FIB old into FIB cur, both read in place: the
// entries of cur that old lacks or holds differently, and the prefixes only
// old holds, both in prefix order.
func Diff(old, cur Reader) (installs []Entry, removes []netip.Prefix) {
	cur.Walk(func(p netip.Prefix, e Entry) bool {
		if o, ok := old.Exact(p); !ok || !o.Equal(e) {
			installs = append(installs, e)
		}
		return true
	})
	old.Walk(func(p netip.Prefix, _ Entry) bool {
		if _, ok := cur.Exact(p); !ok {
			removes = append(removes, p)
		}
		return true
	})
	return installs, removes
}

// Update notifies a listener of a FIB change. IO is the recorded capture
// event for the change.
type Update struct {
	Entry   Entry
	Install bool // false = removed
	IO      capture.IO
}

// Table is one router's FIB. Reads and mutations are safe for concurrent
// use: the simulator mutates tables single-threaded, while the parallel
// verifier's walk workers read them concurrently. Capture recording and
// change notification happen outside the table lock, so listeners may read
// the table freely.
type Table struct {
	mu         sync.RWMutex
	rec        *capture.Recorder
	lpm        *trie.Trie[Entry]
	candidates map[netip.Prefix][]route.Route
	onChange   []func(Update)
}

// NewTable builds an empty FIB that records changes through rec.
func NewTable(rec *capture.Recorder) *Table {
	return &Table{
		rec:        rec,
		lpm:        trie.New[Entry](),
		candidates: map[netip.Prefix][]route.Route{},
	}
}

// OnChange registers a listener for installs and removals. Listeners run
// outside the table lock and may read the table.
func (t *Table) OnChange(fn func(Update)) {
	t.mu.Lock()
	t.onChange = append(t.onChange, fn)
	t.mu.Unlock()
}

// Offer installs or replaces proto's candidate route for r.Prefix and
// re-arbitrates. causes are the capture IDs (typically the protocol's
// rib-install event) that ground-truth the resulting FIB I/O. It returns
// the recorded FIB I/O and true when the installed entry changed; a winner
// that differs from the installed entry in metric or distance alone
// changes nothing.
func (t *Table) Offer(r route.Route, causes ...uint64) (capture.IO, bool) {
	r.Prefix = r.Prefix.Masked()
	t.mu.Lock()
	cands := t.candidates[r.Prefix]
	replaced := false
	for i := range cands {
		if cands[i].Proto == r.Proto {
			cands[i] = r
			replaced = true
			break
		}
	}
	if !replaced {
		cands = append(cands, r)
	}
	t.candidates[r.Prefix] = cands
	change, changed := t.reselectLocked(r.Prefix)
	t.mu.Unlock()
	if !changed {
		return capture.IO{}, false
	}
	return t.emit(change, causes), true
}

// Withdraw removes proto's candidate for prefix and re-arbitrates. It is a
// no-op if the protocol had no candidate. It returns the recorded FIB I/O
// and true when the installed entry changed.
func (t *Table) Withdraw(proto route.Protocol, prefix netip.Prefix, causes ...uint64) (capture.IO, bool) {
	prefix = prefix.Masked()
	t.mu.Lock()
	cands := t.candidates[prefix]
	out := cands[:0]
	removed := false
	for _, c := range cands {
		if c.Proto == proto {
			removed = true
			continue
		}
		out = append(out, c)
	}
	if !removed {
		t.mu.Unlock()
		return capture.IO{}, false
	}
	if len(out) == 0 {
		delete(t.candidates, prefix)
	} else {
		t.candidates[prefix] = out
	}
	change, changed := t.reselectLocked(prefix)
	t.mu.Unlock()
	if !changed {
		return capture.IO{}, false
	}
	return t.emit(change, causes), true
}

func better(a, b route.Route) bool {
	if a.AdminDistance() != b.AdminDistance() {
		return a.AdminDistance() < b.AdminDistance()
	}
	return a.Metric < b.Metric
}

// change is a pending install/removal computed under the lock, recorded
// and broadcast after it is released.
type change struct {
	entry   Entry
	install bool
}

// reselectLocked re-arbitrates prefix and applies the winner to the trie.
// Callers hold t.mu; the capture record and listener notification for the
// returned change happen later, via emit, outside the lock.
func (t *Table) reselectLocked(prefix netip.Prefix) (change, bool) {
	cands := t.candidates[prefix]
	var best *route.Route
	for i := range cands {
		if best == nil || better(cands[i], *best) {
			best = &cands[i]
		}
	}
	cur, had := t.lpm.Exact(prefix)
	if best == nil {
		if !had {
			return change{}, false
		}
		t.lpm.Delete(prefix)
		return change{entry: cur, install: false}, true
	}
	next := Entry{Prefix: prefix, NextHop: best.NextHop, Proto: best.Proto}
	if len(best.NextHops) > 1 {
		next.NextHops = append([]netip.Addr(nil), best.NextHops...)
	}
	if had && cur.Equal(next) {
		return change{}, false
	}
	_ = t.lpm.Insert(prefix, next)
	return change{entry: next, install: true}, true
}

// emit records the FIB I/O for a change and notifies listeners, outside the
// table lock so both the recorder and the listeners may read the table.
func (t *Table) emit(c change, causes []uint64) capture.IO {
	typ := capture.FIBInstall
	if !c.install {
		typ = capture.FIBRemove
	}
	io := t.rec.Record(capture.IO{
		Type: typ, Prefix: c.entry.Prefix,
		NextHop: c.entry.NextHop, NextHops: c.entry.NextHops,
		Proto: c.entry.Proto, Causes: causes,
	})
	t.mu.RLock()
	var listeners []func(Update)
	listeners = append(listeners, t.onChange...)
	t.mu.RUnlock()
	for _, fn := range listeners {
		fn(Update{Entry: c.entry, Install: c.install, IO: io})
	}
	return io
}

// Lookup performs the longest-prefix match for a destination address.
func (t *Table) Lookup(dst netip.Addr) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, _, ok := t.lpm.Lookup(dst)
	return e, ok
}

// Exact returns the installed entry for exactly prefix.
func (t *Table) Exact(prefix netip.Prefix) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lpm.Exact(prefix.Masked())
}

// Walk visits every installed entry in prefix order under the read lock, so
// fn must not call back into the table. Returning false stops the walk.
func (t *Table) Walk(fn func(netip.Prefix, Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.lpm.Walk(fn)
}
