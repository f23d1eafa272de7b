// Package eqclass computes forwarding equivalence classes: groups of
// destination prefixes that every router in the network forwards
// identically. §6 of the paper leans on the observation (from Benson et
// al.) that even networks with 100K prefixes typically exhibit fewer than
// 15 classes, which makes per-class reasoning — and prediction of control
// plane outcomes for new inputs — tractable.
//
// Classification is signature-based: each prefix's per-router forwarding
// behaviour is encoded into a byte vector and interned to a collision-
// checked 64-bit signature ID, so classifying 100K prefixes allocates a
// handful of strings (one per distinct class) instead of one per prefix.
// Compute is the from-scratch path; Incremental maintains the same
// classification across FIB generations, re-signing only prefixes a delta
// can affect. Both read each router's FIB where it lives and copy none.
package eqclass

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/route"
	"hbverify/internal/trie"
)

// Class is one forwarding equivalence class.
type Class struct {
	// Signature is a canonical rendering of the per-router forwarding
	// behaviour ("router=nexthop;...").
	Signature string
	Prefixes  []netip.Prefix
}

func (c Class) String() string {
	return fmt.Sprintf("class[%d prefixes] %s", len(c.Prefixes), c.Signature)
}

// sigID identifies one interned forwarding signature. IDs are meaningful
// only within the interner that produced them; cross-run comparisons must
// use the rendered Signature string.
type sigID uint64

type sigInfo struct {
	key []byte // encoded per-router behaviour vector
	str string // rendered "router=nexthop;..." form
}

// interner maps behaviour vectors to stable 64-bit IDs. The ID is an
// FNV-1a hash of the vector; a hash collision (distinct vectors, same
// hash) is resolved by linear probing over the ID space, with the stored
// vector compared byte-for-byte, so distinct behaviours never share an ID.
type interner struct {
	byID map[sigID]*sigInfo
}

func newInterner() *interner { return &interner{byID: map[sigID]*sigInfo{}} }

// intern returns the ID for key, registering it (with render() as its
// human-readable form) on first sight. render runs at most once per
// distinct signature.
func (in *interner) intern(key []byte, render func() string) sigID {
	id := sigID(fnv64(key))
	for {
		info, ok := in.byID[id]
		if !ok {
			in.byID[id] = &sigInfo{key: append([]byte(nil), key...), str: render()}
			return id
		}
		if bytes.Equal(info.key, key) {
			return id
		}
		id++ // collision: probe the next ID
	}
}

// str returns the rendered signature for an interned ID.
func (in *interner) str(id sigID) string { return in.byID[id].str }

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Behaviour-vector encoding tags.
const (
	sigUnrouted = 0 // no matching route
	sigDirect   = 1 // directly delivered
	sigNextHop  = 2 // followed by a count byte and count 16-byte next hops
)

// appendBehaviour encodes one router's forwarding verdict for a probe:
// exactly what dataplane.Local.Step reads of the entry — whether there is
// one, and its next-hop set. The encoding hashes the *full* next-hop set, so
// two prefixes forwarded over different ECMP member sets (even sharing the
// lowest hop) land in different classes — the invariant the per-class
// symbolic walk relies on.
func appendBehaviour(dst []byte, e fib.Entry, ok bool) []byte {
	switch {
	case !ok:
		return append(dst, sigUnrouted)
	case e.HopCount() == 0:
		return append(dst, sigDirect)
	default:
		n := e.HopCount()
		dst = append(dst, sigNextHop, byte(n))
		for i := 0; i < n; i++ {
			a := e.Hop(i).As16()
			dst = append(dst, a[:]...)
		}
		return dst
	}
}

// table is one router's FIB, read where it lives: a watched router's live
// *fib.Table (each call under its read lock) or a caller's trie (trieTable).
type table interface {
	Lookup(dst netip.Addr) (fib.Entry, bool)
	Exact(p netip.Prefix) (fib.Entry, bool)
	Walk(fn func(netip.Prefix, fib.Entry) bool)
}

// trieTable reads a caller's trie in place; a nil trie reads as empty.
type trieTable struct{ *trie.Trie[fib.Entry] }

func (t trieTable) Lookup(dst netip.Addr) (fib.Entry, bool) {
	e, _, ok := t.Trie.Lookup(dst)
	return e, ok
}

// lookup is one router's verdict for a probe.
type lookup struct {
	e  fib.Entry
	ok bool
}

// lookupper signs prefixes over per-router FIBs, so that classifying P
// prefixes costs O(P · R · W) instead of O(P² · R). The scratch buffers are
// reused across signings, so the steady-state cost of signing a prefix is
// allocation-free.
type lookupper struct {
	routers []string // sorted
	tables  map[string]table
	in      *interner
	scratch []byte
	hits    []lookup // the last signing's lookups, in router order
}

// add registers router's table, replacing any it had.
func (l *lookupper) add(router string, t table) {
	if _, had := l.tables[router]; !had {
		l.routers = append(l.routers, router)
		sort.Strings(l.routers)
	}
	l.tables[router] = t
}

// installed reports whether any table holds an entry for exactly p.
func (l *lookupper) installed(p netip.Prefix) bool {
	for _, t := range l.tables {
		if _, ok := t.Exact(p); ok {
			return true
		}
	}
	return false
}

// universe returns every prefix installed in at least one table.
func (l *lookupper) universe() *trie.Trie[struct{}] {
	u := trie.New[struct{}]()
	for _, t := range l.tables {
		t.Walk(func(p netip.Prefix, _ fib.Entry) bool {
			_ = u.Insert(p, struct{}{})
			return true
		})
	}
	return u
}

// sign interns the forwarding behaviour of one prefix. Each table is read
// once, and a new signature is rendered from those same lookups: a writer
// racing the signing cannot give a key another key's string.
func (l *lookupper) sign(p netip.Prefix) sigID {
	probe := dataplane.Representative(p)
	l.scratch, l.hits = l.scratch[:0], l.hits[:0]
	for _, r := range l.routers {
		e, ok := l.tables[r].Lookup(probe)
		l.hits = append(l.hits, lookup{e, ok})
		l.scratch = appendBehaviour(l.scratch, e, ok)
	}
	return l.in.intern(l.scratch, l.render)
}

// render builds the human-readable signature from the last signing's
// lookups; called once per distinct interned signature.
func (l *lookupper) render() string {
	var b strings.Builder
	for i, h := range l.hits {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(l.routers[i])
		b.WriteByte('=')
		switch {
		case !h.ok:
			b.WriteByte('-')
		case h.e.HopCount() == 0:
			b.WriteString("direct")
		default:
			for j := 0; j < h.e.HopCount(); j++ {
				if j > 0 {
					b.WriteByte('|')
				}
				b.WriteString(h.e.Hop(j).String())
			}
		}
	}
	return b.String()
}

// sortClasses orders classes largest-first, ties broken by signature.
func sortClasses(out []Class) {
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Prefixes) != len(out[j].Prefixes) {
			return len(out[i].Prefixes) > len(out[j].Prefixes)
		}
		return out[i].Signature < out[j].Signature
	})
}

// Compute groups the given prefixes into equivalence classes under the
// supplied FIBs, which it reads in place: it seeds a fresh classifier with
// them and signs through its lookupper. When prefixes is nil, the union of
// all FIB prefixes is used, in (address, length) order, so the derived class
// representatives (Prefixes[0]) are stable across runs. Classes are
// returned largest-first (ties broken by signature).
func Compute(fibs map[string]*trie.Trie[fib.Entry], prefixes []netip.Prefix) []Class {
	inc := NewIncremental(nil)
	for r, t := range fibs {
		inc.Seed(r, t)
	}
	l := inc.look
	if prefixes == nil {
		prefixes = l.universe().Prefixes()
	}
	byID := map[sigID][]netip.Prefix{}
	for _, p := range prefixes {
		id := l.sign(p)
		byID[id] = append(byID[id], p)
	}
	out := make([]Class, 0, len(byID))
	for id, ps := range byID {
		slices.SortFunc(ps, route.ComparePrefix)
		out = append(out, Class{Signature: l.in.str(id), Prefixes: ps})
	}
	sortClasses(out)
	return out
}
