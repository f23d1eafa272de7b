// The stateful, delta-driven side of equivalence-class computation: an
// Incremental classifier subscribed to FIB updates that re-signs only the
// prefixes a batch of deltas can affect, instead of rebuilding per-router
// tries and re-signing the whole prefix universe on every tick.

package eqclass

import (
	"net/netip"
	"slices"
	"sort"
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
	// Routers lists (sorted, deduplicated) the routers whose FIBs changed
	// in the flushed batch — the invalidation set for downstream caches.
	Routers []string
}

// pendingKey identifies the FIB entry a queued update is for. Only the last
// update for a key changes a router's trie, and the prefixes it can affect
// depend on the prefix alone, so the queue keeps one update per key: a
// classifier nobody reads holds at most one per installed entry, however
// long the churn.
type pendingKey struct {
	router string
	prefix netip.Prefix
}

type pendingUpdate struct {
	entry   fib.Entry
	install bool
}

// Incremental maintains forwarding equivalence classes across FIB
// generations. It keeps one trie per router, mirrored from the live FIBs
// via fib.Table.OnChange, and a classification of the prefix universe
// (every prefix installed in at least one FIB — the same universe
// Compute(fibs, nil) derives). On each flush, only prefixes whose
// longest-prefix match could have changed — those whose representative
// probe address lies inside an inserted or removed entry — are re-signed
// and moved between classes.
//
// All methods are safe for concurrent use; FIB change notifications are
// queued and applied lazily on the next Classes/Update/ClassOf
// call, so a burst of updates is classified once.
type Incremental struct {
	mu       sync.Mutex
	reg      *metrics.Registry
	look     *lookupper
	universe *trie.Trie[int] // prefix -> count of routers with it installed
	sigOf    map[netip.Prefix]sigID
	members  map[sigID]map[netip.Prefix]struct{}
	reps     map[sigID]netip.Prefix // smallest (addr, bits) member per class
	pending  map[pendingKey]pendingUpdate
	dirtyAll bool
}

// NewIncremental returns an empty classifier. Register routers with Watch
// (live tables) or Seed (static contents) before the first flush. reg may
// be nil; when set, flushes bump the eqclass.resigned and eqclass.moves
// counters.
func NewIncremental(reg *metrics.Registry) *Incremental {
	return &Incremental{
		reg:      reg,
		look:     &lookupper{tries: map[string]*trie.Trie[fib.Entry]{}, in: newInterner()},
		universe: trie.New[int](),
		sigOf:    map[netip.Prefix]sigID{},
		members:  map[sigID]map[netip.Prefix]struct{}{},
		reps:     map[sigID]netip.Prefix{},
	}
}

// Watch seeds the classifier with router's current FIB contents and
// subscribes to its changes. This is the production entry point; use Seed
// to register contents without the subscription.
//
// The subscription is registered before the snapshot is taken, so an
// update landing in between is both queued and reflected in the seed; the
// flush path tolerates the replay (installs are idempotent, removals only
// decrement the universe refcount when the trie actually held the entry).
func (inc *Incremental) Watch(router string, t *fib.Table) {
	t.OnChange(func(u fib.Update) { inc.Note(router, u) })
	inc.Seed(router, t.Snapshot())
}

// Seed registers router with the given FIB contents without subscribing to
// updates. Adding a router changes every signature (the behaviour vector
// gains a column), so the whole universe is re-signed on the next flush.
func (inc *Incremental) Seed(router string, entries *trie.Trie[fib.Entry]) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.addRouterLocked(router)
	tr := inc.look.tries[router]
	entries.Walk(func(p netip.Prefix, e fib.Entry) bool {
		if _, had := tr.Exact(p); !had {
			inc.refLocked(p, +1)
		}
		_ = tr.Insert(p, e)
		return true
	})
	inc.dirtyAll = true
}

func (inc *Incremental) addRouterLocked(router string) {
	if _, ok := inc.look.tries[router]; ok {
		return
	}
	inc.look.routers = append(inc.look.routers, router)
	sort.Strings(inc.look.routers)
	inc.look.tries[router] = trie.New[fib.Entry]()
	inc.dirtyAll = true
}

// Note queues one FIB delta for the next flush, replacing any queued for the
// same router and prefix. Watch wires this to fib.Table.OnChange; callers
// driving the classifier from a snapshot diff may call it directly.
func (inc *Incremental) Note(router string, u fib.Update) {
	if fault.On(fault.StaleEqclass) {
		return
	}
	inc.mu.Lock()
	if inc.pending == nil {
		inc.pending = map[pendingKey]pendingUpdate{}
	}
	inc.pending[pendingKey{router, u.Entry.Prefix.Masked()}] = pendingUpdate{entry: u.Entry, install: u.Install}
	inc.mu.Unlock()
}

// refLocked adjusts a prefix's universe refcount (how many routers have it
// installed), inserting or dropping the universe entry at the boundaries.
func (inc *Incremental) refLocked(p netip.Prefix, d int) {
	v, _ := inc.universe.Exact(p)
	v += d
	if v <= 0 {
		inc.universe.Delete(p)
		return
	}
	_ = inc.universe.Insert(p, v)
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

// flushLocked applies queued deltas to the per-router tries, re-signs the
// affected prefixes, and moves them between classes.
func (inc *Incremental) flushLocked() Delta {
	var d Delta
	if len(inc.pending) == 0 && !inc.dirtyAll {
		return d
	}
	affected := map[netip.Prefix]struct{}{}
	routers := map[string]struct{}{}
	for k, pu := range inc.pending {
		inc.addRouterLocked(k.router) // unknown router: register (forces full re-sign)
		tr := inc.look.tries[k.router]
		pp := k.prefix
		if pu.install {
			if _, had := tr.Exact(pp); !had {
				inc.refLocked(pp, +1)
			}
			_ = tr.Insert(pp, pu.entry)
		} else {
			if tr.Delete(pp) {
				inc.refLocked(pp, -1)
			}
		}
		routers[k.router] = struct{}{}
		// The touched prefix itself is always affected. affectedLocked finds
		// it via universe.Subtree only while it is still in the universe; a
		// withdrawal from the last router carrying it has already dropped it,
		// and the re-sign loop's not-in-universe branch is what retires its
		// stale classification — so add it unconditionally.
		affected[pp] = struct{}{}
		inc.affectedLocked(pp, affected)
	}
	inc.pending = nil // not clear: that costs every bucket a link flap grew
	if inc.dirtyAll {
		inc.dirtyAll = false
		affected = map[netip.Prefix]struct{}{}
		inc.universe.Walk(func(p netip.Prefix, _ int) bool {
			affected[p] = struct{}{}
			return true
		})
		// Stale classifications of prefixes that left the universe while
		// dirty must go too.
		for p := range inc.sigOf {
			affected[p] = struct{}{}
		}
	}

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

	d.Routers = make([]string, 0, len(routers))
	for r := range routers {
		d.Routers = append(d.Routers, r)
	}
	sort.Strings(d.Routers)
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
// the hot path when the caller only needs the invalidation set; Classes
// materializes the full classification.
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
