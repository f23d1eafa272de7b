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
// can affect.
package eqclass

import (
	"bytes"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
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
	sigDirect   = 1 // directly delivered; followed by len-prefixed iface
	sigNextHop  = 2 // followed by a count byte and count 16-byte next hops
)

// appendBehaviour encodes one router's forwarding verdict for a probe. The
// encoding hashes the *full* next-hop set, so two prefixes forwarded over
// different ECMP member sets (even sharing the lowest hop) land in
// different classes — the invariant the per-class symbolic walk relies on.
func appendBehaviour(dst []byte, e fib.Entry, ok bool) []byte {
	switch {
	case !ok:
		return append(dst, sigUnrouted)
	case e.HopCount() == 0:
		dst = append(dst, sigDirect, byte(len(e.OutIface)))
		return append(dst, e.OutIface...)
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

// lookupper is a compiled, trie-backed view of per-router FIBs so that
// classifying P prefixes costs O(P · R · W) instead of O(P² · R). The
// scratch buffer is reused across signings, so the steady-state cost of
// signing a prefix is allocation-free.
type lookupper struct {
	routers []string
	tries   map[string]*trie.Trie[fib.Entry]
	in      *interner
	scratch []byte
}

func compile(fibs map[string]map[netip.Prefix]fib.Entry) *lookupper {
	l := &lookupper{tries: map[string]*trie.Trie[fib.Entry]{}, in: newInterner()}
	for r := range fibs {
		l.routers = append(l.routers, r)
	}
	sort.Strings(l.routers)
	for _, r := range l.routers {
		tr := trie.New[fib.Entry]()
		for p, e := range fibs[r] {
			_ = tr.Insert(p, e)
		}
		l.tries[r] = tr
	}
	return l
}

// sign interns the forwarding behaviour of one prefix.
func (l *lookupper) sign(p netip.Prefix) sigID {
	probe := dataplane.Representative(p)
	l.scratch = l.scratch[:0]
	for _, r := range l.routers {
		e, _, ok := l.tries[r].Lookup(probe)
		l.scratch = appendBehaviour(l.scratch, e, ok)
	}
	return l.in.intern(l.scratch, func() string { return l.render(probe) })
}

// render builds the human-readable signature for a probe; called once per
// distinct interned signature.
func (l *lookupper) render(probe netip.Addr) string {
	var b strings.Builder
	for i, r := range l.routers {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(r)
		b.WriteByte('=')
		e, _, ok := l.tries[r].Lookup(probe)
		switch {
		case !ok:
			b.WriteByte('-')
		case e.HopCount() == 0:
			b.WriteString("direct:" + e.OutIface)
		default:
			for i := 0; i < e.HopCount(); i++ {
				if i > 0 {
					b.WriteByte('|')
				}
				b.WriteString(e.Hop(i).String())
			}
		}
	}
	return b.String()
}

// sortPrefixes orders prefixes by (address, length) — the canonical order
// class members and derived prefix lists use.
func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool { return prefixLess(ps[i], ps[j]) })
}

func prefixLess(a, b netip.Prefix) bool {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c < 0
	}
	return a.Bits() < b.Bits()
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
// supplied FIBs. When prefixes is nil, the union of all FIB prefixes is
// used, sorted by (address, length) so the derived class representatives
// (Prefixes[0]) are stable across runs regardless of map iteration order.
// Classes are returned largest-first (ties broken by signature).
func Compute(fibs map[string]map[netip.Prefix]fib.Entry, prefixes []netip.Prefix) []Class {
	if prefixes == nil {
		seen := map[netip.Prefix]bool{}
		for _, table := range fibs {
			for p := range table {
				if !seen[p] {
					seen[p] = true
					prefixes = append(prefixes, p)
				}
			}
		}
		sortPrefixes(prefixes)
	}
	l := compile(fibs)
	byID := map[sigID][]netip.Prefix{}
	for _, p := range prefixes {
		id := l.sign(p)
		byID[id] = append(byID[id], p)
	}
	out := make([]Class, 0, len(byID))
	for id, ps := range byID {
		sortPrefixes(ps)
		out = append(out, Class{Signature: l.in.str(id), Prefixes: ps})
	}
	sortClasses(out)
	return out
}
