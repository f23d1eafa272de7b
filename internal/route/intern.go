// BGP attribute interning. A route reflector hierarchy carrying 500K
// prefixes stores the same handful of attribute sets half a million times;
// real BGP implementations hash-cons path attributes so every route with
// the same AS path / communities shares one canonical copy. Interner does
// the same for BGPAttrs: Acquire returns a refcounted handle onto a
// canonical entry (deep-copied exactly once, on first sight), and every
// subsequent holder shares the canonical slices. The canonical value is
// immutable by convention: holders may copy the struct and mutate scalar
// fields, but must never write through the shared slices — exporters in
// this repository always build fresh slices when rewriting paths.
//
// Stats track both the canonical bytes retained and the bytes deep copies
// would have cost, which is how network's TestScaleInternRatio measures the
// storage reduction deterministically (RSS is too noisy at 500K prefixes).

package route

import (
	"net/netip"
	"sync"
)

// internEntry is one canonical attribute set plus its refcount. Entries are
// keyed by content hash with per-bucket chaining for collisions.
type internEntry struct {
	attrs BGPAttrs
	hash  uint64
	refs  int64
	in    *Interner
}

// AttrRef is a refcounted handle onto a canonical interned attribute set.
// The zero value is invalid. Copying the handle does not add a reference;
// each Acquire is matched by exactly one Release.
type AttrRef struct{ e *internEntry }

// Attrs returns the canonical attribute set. The slices are shared: callers
// may copy the struct and change scalar fields but must not mutate ASPath,
// Communities, or ClusterList in place.
func (r AttrRef) Attrs() BGPAttrs {
	if r.e == nil {
		return BGPAttrs{}
	}
	return r.e.attrs
}

// Release drops a reference; the canonical entry is evicted from the table
// when the last holder releases. Releasing an invalid handle is a no-op.
func (r AttrRef) Release() {
	if r.e != nil {
		r.e.in.release(r.e)
	}
}

// InternStats summarizes an interner's table. SharedBytes is what the live
// references would cost if each held a deep copy (the pre-interning
// regime); CanonicalBytes is what the canonical entries actually retain.
type InternStats struct {
	Unique         int   // live canonical entries
	LiveRefs       int64 // outstanding references across all entries
	Acquires       int64 // total Acquire calls
	Hits           int64 // Acquires that found an existing entry
	CanonicalBytes int64 // slice bytes retained by canonical entries
	SharedBytes    int64 // slice bytes deep copies would have retained
}

// Interner hash-conses BGPAttrs into canonical refcounted entries.
type Interner struct {
	mu       sync.Mutex
	table    map[uint64][]*internEntry
	liveRefs int64
	acquires int64
	hits     int64
	canon    int64
	shared   int64
}

// NewInterner returns an empty canonical table.
func NewInterner() *Interner {
	return &Interner{table: map[uint64][]*internEntry{}}
}

// DefaultInterner is the process-global table the BGP speakers share.
var DefaultInterner = NewInterner()

// Intern acquires a handle from the global table.
func Intern(a BGPAttrs) AttrRef { return DefaultInterner.Acquire(a) }

// AttrBytes returns the heap bytes a deep copy of a's slices would retain.
func AttrBytes(a BGPAttrs) int64 {
	const addrSize = 24 // unsafe.Sizeof(netip.Addr{})
	return int64(4*len(a.ASPath) + 4*len(a.Communities) + addrSize*len(a.ClusterList))
}

func hashAttrs(a BGPAttrs) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix32 := func(v uint32) {
		h ^= uint64(v & 0xff)
		h *= prime64
		h ^= uint64(v >> 8 & 0xff)
		h *= prime64
		h ^= uint64(v >> 16 & 0xff)
		h *= prime64
		h ^= uint64(v >> 24 & 0xff)
		h *= prime64
	}
	mix32(a.LocalPref)
	mix32(a.MED)
	mix32(uint32(a.Origin))
	mix32(uint32(len(a.ASPath)))
	for _, as := range a.ASPath {
		mix32(as)
	}
	mix32(uint32(len(a.Communities)))
	for _, c := range a.Communities {
		mix32(c)
	}
	if a.OriginatorID.IsValid() {
		b := a.OriginatorID.As16()
		for i := 0; i < 16; i++ {
			h ^= uint64(b[i])
			h *= prime64
		}
	}
	mix32(uint32(len(a.ClusterList)))
	for _, cl := range a.ClusterList {
		b := cl.As16()
		for i := 0; i < 16; i++ {
			h ^= uint64(b[i])
			h *= prime64
		}
	}
	return h
}

func attrsEqualForIntern(a, b BGPAttrs) bool {
	if a.LocalPref != b.LocalPref || a.MED != b.MED || a.Origin != b.Origin ||
		a.OriginatorID != b.OriginatorID ||
		len(a.ASPath) != len(b.ASPath) || len(a.Communities) != len(b.Communities) ||
		len(a.ClusterList) != len(b.ClusterList) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	for i := range a.Communities {
		if a.Communities[i] != b.Communities[i] {
			return false
		}
	}
	for i := range a.ClusterList {
		if a.ClusterList[i] != b.ClusterList[i] {
			return false
		}
	}
	return true
}

// Acquire returns a handle onto the canonical entry for a, creating it
// (with a one-time deep copy) on first sight. The caller owns one reference.
func (in *Interner) Acquire(a BGPAttrs) AttrRef {
	h := hashAttrs(a)
	in.mu.Lock()
	defer in.mu.Unlock()
	in.acquires++
	for _, e := range in.table[h] {
		if attrsEqualForIntern(e.attrs, a) {
			in.hits++
			e.refs++
			in.liveRefs++
			in.shared += AttrBytes(e.attrs)
			return AttrRef{e: e}
		}
	}
	e := &internEntry{attrs: a.Clone(), hash: h, refs: 1, in: in}
	in.table[h] = append(in.table[h], e)
	in.liveRefs++
	b := AttrBytes(a)
	in.canon += b
	in.shared += b
	return AttrRef{e: e}
}

func (in *Interner) release(e *internEntry) {
	in.mu.Lock()
	defer in.mu.Unlock()
	e.refs--
	in.liveRefs--
	in.shared -= AttrBytes(e.attrs)
	if e.refs > 0 {
		return
	}
	bucket := in.table[e.hash]
	for i, be := range bucket {
		if be == e {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(in.table, e.hash)
	} else {
		in.table[e.hash] = bucket
	}
	in.canon -= AttrBytes(e.attrs)
}

// Stats snapshots the table.
func (in *Interner) Stats() InternStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, b := range in.table {
		n += len(b)
	}
	return InternStats{
		Unique:         n,
		LiveRefs:       in.liveRefs,
		Acquires:       in.acquires,
		Hits:           in.hits,
		CanonicalBytes: in.canon,
		SharedBytes:    in.shared,
	}
}

// SameUint32Slice reports element equality with a pointer-identity fast
// path: two handles onto the same canonical entry compare in O(1).
func SameUint32Slice(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SameAddrSlice is SameUint32Slice for address lists.
func SameAddrSlice(a, b []netip.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AttrsEqual reports full content equality of two attribute sets, with the
// canonical-pointer fast path on each slice.
func AttrsEqual(a, b BGPAttrs) bool {
	return a.LocalPref == b.LocalPref && a.MED == b.MED && a.Origin == b.Origin &&
		a.OriginatorID == b.OriginatorID &&
		SameUint32Slice(a.ASPath, b.ASPath) &&
		SameUint32Slice(a.Communities, b.Communities) &&
		SameAddrSlice(a.ClusterList, b.ClusterList)
}
