// Package wire is the one binary layer under everything the verifier reads
// that it did not write in this process: dist frames from peers, the hbg
// checkpoint after a crash, the stream daemon's envelope around it. It
// holds the primitives those formats share — uvarint/varint integers
// (encoders call binary.AppendUvarint directly), length-prefixed strings,
// raw address bytes — and the one Reader that decodes them.
//
// The Reader's contract is what makes a decoder safe on foreign bytes: it
// never panics, the first error sticks and every later read returns a zero
// value (so a decoder checks Err once per section, not once per field), and
// Count bounds every collection length by the elements the remaining bytes
// could hold, so a decoder cannot be made to allocate more than a small
// multiple of its input however large a count the input claims.
package wire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// AppendString writes s as [uvarint length][bytes].
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendAddr writes a netip.Addr as [len byte][bytes]; len 0 marks the
// invalid (unset) address.
func AppendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, 0)
	}
	s := a.AsSlice()
	b = append(b, byte(len(s)))
	return append(b, s...)
}

// AppendPrefix writes addr + bits; the invalid prefix is addr-len 0 with no
// bits byte.
func AppendPrefix(b []byte, p netip.Prefix) []byte {
	if !p.IsValid() {
		return append(b, 0)
	}
	b = AppendAddr(b, p.Addr())
	return append(b, byte(p.Bits()))
}

func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

func AppendAddrs(b []byte, as []netip.Addr) []byte {
	b = binary.AppendUvarint(b, uint64(len(as)))
	for _, a := range as {
		b = AppendAddr(b, a)
	}
	return b
}

// Reader consumes a binary payload.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads b, which it does not copy and never modifies.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err is the first error any read hit, nil while every read succeeded.
func (r *Reader) Err() error { return r.err }

// Len is the number of bytes not yet consumed.
func (r *Reader) Len() int { return len(r.b) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: bad or truncated %s at offset %d", what, r.off)
	}
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Take returns the next n bytes, aliasing the payload.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.fail("bytes")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// Str reads an AppendString string.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.fail("string")
		return ""
	}
	return string(r.Take(int(n)))
}

// Count reads a collection length. min is the fewest bytes one element
// encodes to (at least 1): a count that the remaining payload could not
// hold is an error, so sizing a slice by the result allocates at most
// sizeof(element)/min times the input.
func (r *Reader) Count(what string, min int) int {
	n := r.Uvarint()
	if n > uint64(r.Len()/min) {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

func (r *Reader) Addr() netip.Addr {
	n := int(r.Byte())
	if n == 0 {
		return netip.Addr{}
	}
	a, ok := netip.AddrFromSlice(r.Take(n))
	if !ok {
		r.fail("addr")
	}
	return a
}

// Prefix keeps host bits beyond the mask: the reader returns what was
// written.
func (r *Reader) Prefix() netip.Prefix {
	a := r.Addr()
	if !a.IsValid() {
		return netip.Prefix{}
	}
	p := netip.PrefixFrom(a, int(r.Byte()))
	if r.err != nil || !p.IsValid() {
		r.fail("prefix")
		return netip.Prefix{}
	}
	return p
}

// Addrs reads an AppendAddrs list; nil when it is empty.
func (r *Reader) Addrs() []netip.Addr {
	n := r.Count("addrs", 1)
	if n == 0 {
		return nil
	}
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = r.Addr()
	}
	return out
}

// Strs reads an AppendStrings list; nil when it is empty.
func (r *Reader) Strs() []string {
	n := r.Count("strings", 1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}
