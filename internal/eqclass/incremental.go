// The stateful, delta-driven side of equivalence-class computation: an
// Incremental classifier subscribed to FIB updates that re-signs only the
// prefixes a batch of deltas can affect, instead of re-signing the whole
// prefix universe on every tick.

package eqclass

import (
	"net/netip"
	"slices"
	"sync"

	"hbverify/internal/dataplane"
	"hbverify/internal/fault"
	"hbverify/internal/fib"
	"hbverify/internal/metrics"
	"hbverify/internal/route"
	"hbverify/internal/trie"
)

// Delta summarizes one flush of queued FIB updates.
type Delta struct {
	// Resigned counts prefixes whose signature was recomputed.
	Resigned int
	// Moves counts class-membership changes: a prefix changing class,
	// arriving in the universe, or leaving it.
	Moves int
}

// Incremental maintains forwarding equivalence classes across FIB
// generations. It reads each router's FIB where it lives and keeps only
// what it derives from them: the prefix universe (every prefix installed in
// at least one FIB — the same universe Compute(fibs, nil) derives), the
// signatures and the classes. On each flush, only prefixes whose
// longest-prefix match could have changed — those whose representative
// probe address lies inside a noted prefix — are re-signed and moved
// between classes.
//
// All methods are safe for concurrent use; FIB change notifications are
// queued and applied lazily on the next Classes/Update/ClassOf call, so a
// burst of updates is classified once. Lock order: the classifier's lock,
// then a table's read lock. A fib.Table calls its listeners outside its own
// lock, so Note never holds a table lock.
type Incremental struct {
	mu       sync.Mutex
	reg      *metrics.Registry
	look     *lookupper
	universe *trie.Trie[struct{}]
	sigOf    map[netip.Prefix]sigID
	members  map[sigID]map[netip.Prefix]struct{}
	reps     map[sigID]netip.Prefix // smallest (addr, bits) member per class
	// pending holds the prefixes noted since the last flush: at most one
	// per installed entry, however long the churn between reads.
	pending  map[netip.Prefix]struct{}
	dirtyAll bool
}

// NewIncremental returns an empty classifier. Register routers with Watch
// (live tables) or Seed (static contents) before the first flush. reg may
// be nil; when set, flushes bump the eqclass.resigned and eqclass.moves
// counters.
func NewIncremental(reg *metrics.Registry) *Incremental {
	return &Incremental{
		reg:      reg,
		look:     &lookupper{tables: map[string]table{}, in: newInterner()},
		universe: trie.New[struct{}](),
		sigOf:    map[netip.Prefix]sigID{},
		members:  map[sigID]map[netip.Prefix]struct{}{},
		reps:     map[sigID]netip.Prefix{},
		pending:  map[netip.Prefix]struct{}{},
	}
}

// Watch registers router's live table and subscribes to its changes. This
// is the production entry point; use Seed to register contents without the
// subscription.
//
// The subscription comes first, so an update landing in between is both
// queued and visible in the table; re-reading it changes nothing.
func (inc *Incremental) Watch(router string, t *fib.Table) {
	t.OnChange(func(u fib.Update) { inc.Note(router, u) })
	inc.add(router, t)
}

// Seed registers router's FIB contents, read in place and unsubscribed: a
// caller that changes entries afterwards must Note each change.
func (inc *Incremental) Seed(router string, entries *trie.Trie[fib.Entry]) {
	inc.add(router, trieTable{entries})
}

// add registers (or replaces) router's table, which can change any
// signature: the next flush re-derives the universe and re-signs it all.
func (inc *Incremental) add(router string, t table) {
	inc.mu.Lock()
	inc.look.add(router, t)
	inc.dirtyAll = true
	inc.mu.Unlock()
}

// Note queues the prefix of one FIB delta for the next flush. Watch wires
// this to fib.Table.OnChange; callers driving the classifier from a
// snapshot diff may call it directly. router must be registered: its table
// is read where it lives, so only the prefix is queued.
func (inc *Incremental) Note(router string, u fib.Update) {
	if fault.On(fault.StaleEqclass) {
		return
	}
	inc.mu.Lock()
	inc.pending[u.Entry.Prefix.Masked()] = struct{}{}
	inc.mu.Unlock()
}

// affectedLocked collects the universe prefixes whose longest-prefix match
// an insert/remove of entry pp can change: exactly those whose
// representative probe address lies inside pp. Descendants of pp qualify
// wholesale (their probe is inside them, hence inside pp); an ancestor
// qualifies only when its probe happens to fall inside pp.
func (inc *Incremental) affectedLocked(pp netip.Prefix, set map[netip.Prefix]struct{}) {
	for _, p := range inc.universe.Subtree(pp) {
		set[p] = struct{}{}
	}
	for bits := 0; bits < pp.Bits(); bits++ {
		anc, err := pp.Addr().Prefix(bits)
		if err != nil {
			continue
		}
		if _, ok := inc.universe.Exact(anc); ok && pp.Contains(dataplane.Representative(anc)) {
			set[anc] = struct{}{}
		}
	}
}

// flushLocked re-reads the queued prefixes' universe membership, re-signs
// the affected prefixes, and moves them between classes. Membership is read
// from the tables, not counted from the notes, so the flush is idempotent:
// the order in which notes arrive cannot skew it.
func (inc *Incremental) flushLocked() Delta {
	var d Delta
	if len(inc.pending) == 0 && !inc.dirtyAll {
		return d
	}
	affected := map[netip.Prefix]struct{}{}
	if inc.dirtyAll {
		inc.dirtyAll = false
		inc.universe = inc.look.universe()
		for _, p := range inc.universe.Prefixes() {
			affected[p] = struct{}{}
		}
		// Prefixes that left the universe lose their classes too.
		for p := range inc.sigOf {
			affected[p] = struct{}{}
		}
	} else {
		for pp := range inc.pending {
			if inc.look.installed(pp) {
				_ = inc.universe.Insert(pp, struct{}{})
			} else {
				inc.universe.Delete(pp)
			}
			// The noted prefix is always affected: withdrawn from the last
			// table carrying it, it has left the universe, and only the
			// re-sign loop's not-in-universe branch retires its class.
			affected[pp] = struct{}{}
			inc.affectedLocked(pp, affected)
		}
	}
	inc.pending = map[netip.Prefix]struct{}{} // not clear: that costs every bucket a link flap grew

	for p := range affected {
		if _, inUniverse := inc.universe.Exact(p); !inUniverse {
			if id, had := inc.sigOf[p]; had {
				inc.removeMemberLocked(p, id)
				d.Moves++
			}
			continue
		}
		id := inc.look.sign(p)
		d.Resigned++
		old, had := inc.sigOf[p]
		if had && old == id {
			continue
		}
		if had {
			inc.removeMemberLocked(p, old)
		}
		inc.addMemberLocked(p, id)
		d.Moves++
	}

	inc.reg.Counter("eqclass.resigned").Add(int64(d.Resigned))
	inc.reg.Counter("eqclass.moves").Add(int64(d.Moves))
	return d
}

func (inc *Incremental) addMemberLocked(p netip.Prefix, id sigID) {
	set := inc.members[id]
	if set == nil {
		set = map[netip.Prefix]struct{}{}
		inc.members[id] = set
	}
	set[p] = struct{}{}
	inc.sigOf[p] = id
	if rep, ok := inc.reps[id]; !ok || route.ComparePrefix(p, rep) < 0 {
		inc.reps[id] = p
	}
}

func (inc *Incremental) removeMemberLocked(p netip.Prefix, id sigID) {
	set := inc.members[id]
	delete(set, p)
	delete(inc.sigOf, p)
	if len(set) == 0 {
		delete(inc.members, id)
		delete(inc.reps, id)
		return
	}
	if inc.reps[id] == p {
		// The departed prefix was the class representative: rescan for the
		// new minimum. Rare (one class, only when its smallest member moves).
		first := true
		var min netip.Prefix
		for m := range set {
			if first || route.ComparePrefix(m, min) < 0 {
				min, first = m, false
			}
		}
		inc.reps[id] = min
	}
}

// Update flushes queued FIB deltas and reports what changed. Use this on
// the hot path when the caller only needs the counts; Classes materializes
// the full classification.
func (inc *Incremental) Update() Delta {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.flushLocked()
}

// Classes flushes queued deltas and returns the current classification in
// Compute's canonical form: classes largest-first (ties by signature),
// members sorted by (address, length).
func (inc *Incremental) Classes() []Class {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.flushLocked()
	out := make([]Class, 0, len(inc.members))
	for id, set := range inc.members {
		ps := make([]netip.Prefix, 0, len(set))
		for p := range set {
			ps = append(ps, p)
		}
		slices.SortFunc(ps, route.ComparePrefix)
		out = append(out, Class{Signature: inc.look.in.str(id), Prefixes: ps})
	}
	sortClasses(out)
	return out
}

// ClassOf flushes queued deltas and returns the representative prefix of
// the forwarding equivalence class containing p. ok is false when p is not
// classified (not installed in any watched FIB) — callers should fall back
// to probing p itself. This is the query planner's canonicalization hook:
// two queries whose prefixes share a class share the representative, hence
// one symbolic walk.
func (inc *Incremental) ClassOf(p netip.Prefix) (rep netip.Prefix, ok bool) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.flushLocked()
	id, found := inc.sigOf[p.Masked()]
	if !found {
		return netip.Prefix{}, false
	}
	return inc.reps[id], true
}

// Len flushes queued deltas and reports the number of classes.
func (inc *Incremental) Len() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.flushLocked()
	return len(inc.members)
}
