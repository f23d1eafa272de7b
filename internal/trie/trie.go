// Package trie implements a path-compressed binary longest-prefix-match
// trie over netip prefixes. It backs the FIB, the data-plane packet walker,
// and the forwarding-equivalence-class computation.
//
// Each node stores the full prefix of its position (a 128-bit key plus a
// bit count), so a run of single-child unibit nodes collapses into one edge
// checked with a single masked comparison. Lookup is iterative and
// allocation-free: internet-scale tables (500K prefixes) walk a handful of
// nodes per query instead of one node per bit. The original one-bit-per-node
// implementation lives in the package's tests as the differential oracle.
//
// The trie is generic over the stored value so the FIB can hold route
// entries while eqclass can hold arbitrary class labels. Values are stored
// only at nodes that carry an inserted prefix; lookup walks the destination
// address remembering the last value seen.
package trie

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"strings"
)

// key128 holds address bits MSB-first: bit 0 is the top bit of hi. IPv4
// addresses occupy the top 32 bits so prefix lengths index uniformly.
type key128 struct{ hi, lo uint64 }

func keyOf(a netip.Addr) key128 {
	if !a.Is6() {
		b := a.As4()
		return key128{hi: uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32}
	}
	b := a.As16()
	return key128{
		hi: binary.BigEndian.Uint64(b[0:8]),
		lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

func (k key128) bit(i int) int {
	if i < 64 {
		return int(k.hi >> (63 - i) & 1)
	}
	return int(k.lo >> (127 - i) & 1)
}

// mask zeroes every bit at index >= n.
func (k key128) mask(n int) key128 {
	switch {
	case n <= 0:
		return key128{}
	case n < 64:
		return key128{hi: k.hi &^ (1<<(64-n) - 1)}
	case n == 64:
		return key128{hi: k.hi}
	case n < 128:
		return key128{hi: k.hi, lo: k.lo &^ (1<<(128-n) - 1)}
	}
	return k
}

// firstDiff returns the index of the first bit where a and b differ, or
// limit if they agree on all bits below limit. One or two word compares —
// this is the "one comparison per compressed run" at the heart of lookup.
func firstDiff(a, b key128, limit int) int {
	if x := a.hi ^ b.hi; x != 0 {
		if d := bits.LeadingZeros64(x); d < limit {
			return d
		}
		return limit
	}
	if limit <= 64 {
		return limit
	}
	if x := a.lo ^ b.lo; x != 0 {
		if d := 64 + bits.LeadingZeros64(x); d < limit {
			return d
		}
	}
	return limit
}

// node is a compressed-trie vertex: key holds its full prefix (masked to
// bits). Invariant: an unset non-root node always has two children —
// single-child unset nodes are spliced out on delete, and inserts only
// create them set.
type node[V any] struct {
	key   key128
	bits  int
	child [2]*node[V]
	val   V
	set   bool
	pfx   netip.Prefix // valid only when set
}

// Trie is a longest-prefix-match table. The zero value is empty and usable,
// and a nil *Trie reads as empty. A single Trie must hold only one address
// family; mixing v4 and v6 prefixes is rejected.
type Trie[V any] struct {
	root node[V]
	size int
	is6  bool
	used bool
}

// New returns an empty trie.
func New[V any]() *Trie[V] { return &Trie[V]{} }

// Clone returns a copy of t that shares no node with it, so either can be
// written without the other seeing it; values are copied as V copies (a
// slice inside one is shared). A nil trie clones to an empty one.
func (t *Trie[V]) Clone() *Trie[V] {
	if t == nil {
		return New[V]()
	}
	c := *t
	c.root.child = [2]*node[V]{cloneNode(t.root.child[0]), cloneNode(t.root.child[1])}
	return &c
}

func cloneNode[V any](n *node[V]) *node[V] {
	if n == nil {
		return nil
	}
	c := *n
	c.child = [2]*node[V]{cloneNode(n.child[0]), cloneNode(n.child[1])}
	return &c
}

// Len reports the number of stored prefixes.
func (t *Trie[V]) Len() int {
	if t == nil {
		return 0
	}
	return t.size
}

func (t *Trie[V]) checkFamily(p netip.Prefix) error {
	if !p.IsValid() {
		return fmt.Errorf("trie: invalid prefix %v", p)
	}
	if !t.used {
		t.used, t.is6 = true, p.Addr().Is6()
		return nil
	}
	if p.Addr().Is6() != t.is6 {
		return fmt.Errorf("trie: mixed address families (%v)", p)
	}
	return nil
}

// Insert stores v under prefix p, replacing any existing value. The prefix
// is masked to its canonical form.
func (t *Trie[V]) Insert(p netip.Prefix, v V) error {
	p = p.Masked()
	if err := t.checkFamily(p); err != nil {
		return err
	}
	k := keyOf(p.Addr())
	plen := p.Bits()
	n := &t.root
	for {
		if n.bits == plen {
			if !n.set {
				t.size++
			}
			n.set, n.val, n.pfx = true, v, p
			return nil
		}
		b := k.bit(n.bits)
		c := n.child[b]
		if c == nil {
			n.child[b] = &node[V]{key: k.mask(plen), bits: plen, set: true, val: v, pfx: p}
			t.size++
			return nil
		}
		limit := c.bits
		if plen < limit {
			limit = plen
		}
		if d := firstDiff(k, c.key, limit); d < limit {
			// Keys diverge inside c's compressed run: split the edge with a
			// branch node and hang the new leaf off the other side.
			mid := &node[V]{key: k.mask(d), bits: d}
			mid.child[c.key.bit(d)] = c
			mid.child[k.bit(d)] = &node[V]{key: k.mask(plen), bits: plen, set: true, val: v, pfx: p}
			n.child[b] = mid
			t.size++
			return nil
		}
		if c.bits <= plen {
			n = c
			continue
		}
		// p lies on the edge above c: split at p's length.
		mid := &node[V]{key: k.mask(plen), bits: plen, set: true, val: v, pfx: p}
		mid.child[c.key.bit(plen)] = c
		n.child[b] = mid
		t.size++
		return nil
	}
}

// Delete removes prefix p. It reports whether the prefix was present.
// Redundant nodes (unset with fewer than two children) are removed or
// spliced so walks stay proportional to live content.
func (t *Trie[V]) Delete(p netip.Prefix) bool {
	p = p.Masked()
	if !t.used || !p.IsValid() || p.Addr().Is6() != t.is6 {
		return false
	}
	k := keyOf(p.Addr())
	plen := p.Bits()
	var gp, parent *node[V]
	n := &t.root
	for n.bits < plen {
		c := n.child[k.bit(n.bits)]
		if c == nil || c.bits > plen {
			return false
		}
		if firstDiff(k, c.key, c.bits) < c.bits {
			return false
		}
		gp, parent, n = parent, n, c
	}
	if n.bits != plen || !n.set {
		return false
	}
	var zero V
	n.set, n.val, n.pfx = false, zero, netip.Prefix{}
	t.size--
	if n == &t.root {
		return true
	}
	c0, c1 := n.child[0], n.child[1]
	switch {
	case c0 != nil && c1 != nil:
		// Still a genuine branch point.
	case c0 == nil && c1 == nil:
		parent.child[k.bit(parent.bits)] = nil
		// The parent may now be an unset single-child branch: splice it.
		if parent != &t.root && !parent.set {
			rest := parent.child[0]
			if rest == nil {
				rest = parent.child[1]
			}
			gp.child[parent.key.bit(gp.bits)] = rest
		}
	default:
		// One child: splice n out of the edge.
		rest := c0
		if rest == nil {
			rest = c1
		}
		parent.child[k.bit(parent.bits)] = rest
	}
	return true
}

// Exact returns the value stored at exactly prefix p.
func (t *Trie[V]) Exact(p netip.Prefix) (V, bool) {
	var zero V
	p = p.Masked()
	if t == nil || !t.used || !p.IsValid() || p.Addr().Is6() != t.is6 {
		return zero, false
	}
	k := keyOf(p.Addr())
	plen := p.Bits()
	n := &t.root
	for n.bits < plen {
		c := n.child[k.bit(n.bits)]
		if c == nil || c.bits > plen {
			return zero, false
		}
		if firstDiff(k, c.key, c.bits) < c.bits {
			return zero, false
		}
		n = c
	}
	if n.bits != plen || !n.set {
		return zero, false
	}
	return n.val, true
}

// Lookup returns the value and prefix of the longest stored prefix covering
// addr. The walk is iterative and allocation-free.
func (t *Trie[V]) Lookup(addr netip.Addr) (V, netip.Prefix, bool) {
	var zero V
	if t == nil || !t.used || !addr.IsValid() || addr.Is6() != t.is6 {
		return zero, netip.Prefix{}, false
	}
	k := keyOf(addr)
	best := t.descendBest(k, addr.BitLen())
	if best == nil {
		return zero, netip.Prefix{}, false
	}
	return best.val, best.pfx, true
}

// descendBest walks toward key, limited to maxBits, returning the deepest
// set node passed.
func (t *Trie[V]) descendBest(k key128, maxBits int) *node[V] {
	var best *node[V]
	n := &t.root
	for {
		if n.set {
			best = n
		}
		if n.bits >= maxBits {
			return best
		}
		c := n.child[k.bit(n.bits)]
		if c == nil || c.bits > maxBits {
			return best
		}
		if firstDiff(k, c.key, c.bits) < c.bits {
			return best
		}
		n = c
	}
}

// Walk visits every stored (prefix, value) pair in lexicographic bit order,
// which within one address family is (address, length) order. Returning
// false from fn stops the walk.
func (t *Trie[V]) Walk(fn func(netip.Prefix, V) bool) {
	if t == nil {
		return
	}
	var rec func(n *node[V]) bool
	rec = func(n *node[V]) bool {
		if n == nil {
			return true
		}
		if n.set {
			if !fn(n.pfx, n.val) {
				return false
			}
		}
		return rec(n.child[0]) && rec(n.child[1])
	}
	rec(&t.root)
}

// Prefixes returns all stored prefixes in Walk order: by (address, length).
func (t *Trie[V]) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, t.Len())
	t.Walk(func(p netip.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Subtree returns every stored prefix contained in p (including p itself),
// in lexicographic bit order. The traversal is iterative: the explicit
// stack is bounded by the tree height (at most one node per key bit).
func (t *Trie[V]) Subtree(p netip.Prefix) []netip.Prefix {
	p = p.Masked()
	var out []netip.Prefix
	if t == nil || !t.used || !p.IsValid() || p.Addr().Is6() != t.is6 {
		return out
	}
	k := keyOf(p.Addr())
	plen := p.Bits()
	n := &t.root
	for n.bits < plen {
		c := n.child[k.bit(n.bits)]
		if c == nil {
			return out
		}
		if c.bits >= plen {
			if firstDiff(k, c.key, plen) < plen {
				return out
			}
			n = c
			break
		}
		if firstDiff(k, c.key, c.bits) < c.bits {
			return out
		}
		n = c
	}
	// Preorder DFS under n: node, then child 0, then child 1.
	var stack [130]*node[V]
	top := 0
	stack[top] = n
	top++
	for top > 0 {
		top--
		n := stack[top]
		if n.set {
			out = append(out, n.pfx)
		}
		if n.child[1] != nil {
			stack[top] = n.child[1]
			top++
		}
		if n.child[0] != nil {
			stack[top] = n.child[0]
			top++
		}
	}
	return out
}

// String renders the trie contents, one "prefix -> value" per line, for
// debugging and golden tests.
func (t *Trie[V]) String() string {
	var b strings.Builder
	for _, p := range t.Prefixes() {
		v, _ := t.Exact(p)
		fmt.Fprintf(&b, "%v -> %v\n", p, v)
	}
	return b.String()
}
