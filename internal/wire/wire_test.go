package wire

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

var (
	v4  = netip.MustParseAddr("192.0.2.1")
	v6  = netip.MustParseAddr("2001:db8::1")
	pfx = netip.MustParsePrefix("10.1.0.0/16")
)

// primitives is every encoder with the read that inverts it.
var primitives = []struct {
	name string
	enc  []byte
	read func(*Reader) any
	want any
}{
	{"uvarint", binary.AppendUvarint(nil, 1<<40), func(r *Reader) any { return r.Uvarint() }, uint64(1 << 40)},
	{"varint", binary.AppendVarint(nil, -(1 << 40)), func(r *Reader) any { return r.Varint() }, int64(-(1 << 40))},
	{"byte", []byte{7}, func(r *Reader) any { return r.Byte() }, byte(7)},
	{"bool", AppendBool(nil, true), func(r *Reader) any { return r.Bool() }, true},
	{"take", []byte{1, 2, 3}, func(r *Reader) any { return r.Take(3) }, []byte{1, 2, 3}},
	{"string", AppendString(nil, "router-1"), func(r *Reader) any { return r.Str() }, "router-1"},
	{"empty string", AppendString(nil, ""), func(r *Reader) any { return r.Str() }, ""},
	{"addr v4", AppendAddr(nil, v4), func(r *Reader) any { return r.Addr() }, v4},
	{"addr v6", AppendAddr(nil, v6), func(r *Reader) any { return r.Addr() }, v6},
	{"addr unset", AppendAddr(nil, netip.Addr{}), func(r *Reader) any { return r.Addr() }, netip.Addr{}},
	{"prefix", AppendPrefix(nil, pfx), func(r *Reader) any { return r.Prefix() }, pfx},
	{"prefix with host bits", AppendPrefix(nil, netip.PrefixFrom(v4, 8)), func(r *Reader) any { return r.Prefix() }, netip.PrefixFrom(v4, 8)},
	{"prefix unset", AppendPrefix(nil, netip.Prefix{}), func(r *Reader) any { return r.Prefix() }, netip.Prefix{}},
	{"strings", AppendStrings(nil, []string{"a", "", "ccc"}), func(r *Reader) any { return r.Strs() }, []string{"a", "", "ccc"}},
	{"no strings", AppendStrings(nil, nil), func(r *Reader) any { return r.Strs() }, []string(nil)},
	{"addrs", AppendAddrs(nil, []netip.Addr{v4, {}, v6}), func(r *Reader) any { return r.Addrs() }, []netip.Addr{v4, {}, v6}},
	{"no addrs", AppendAddrs(nil, nil), func(r *Reader) any { return r.Addrs() }, []netip.Addr(nil)},
}

func TestPrimitivesRoundTripAndTruncate(t *testing.T) {
	for _, p := range primitives {
		r := NewReader(p.enc)
		if got := p.read(r); r.Err() != nil || r.Len() != 0 || !reflect.DeepEqual(got, p.want) {
			t.Errorf("%s: got %v (err %v, %d bytes left), want %v", p.name, got, r.Err(), r.Len(), p.want)
		}
		for cut := range p.enc {
			r := NewReader(p.enc[:cut])
			got := p.read(r)
			if r.Err() == nil {
				t.Errorf("%s: truncation at %d of %d accepted", p.name, cut, len(p.enc))
			}
			// A list cut short may come back partly filled; a scalar is zero.
			if wt := reflect.TypeOf(p.want); wt.Kind() != reflect.Slice && got != reflect.Zero(wt).Interface() {
				t.Errorf("%s: truncation at %d returned %v, want the zero value", p.name, cut, got)
			}
		}
	}
}

func TestFirstErrorSticks(t *testing.T) {
	r := NewReader([]byte{0x80}) // an unterminated uvarint, then nothing
	r.Uvarint()
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "uvarint at offset 0") {
		t.Fatalf("err = %v", first)
	}
	if r.Byte() != 0 || r.Str() != "" || r.Take(0) != nil || r.Addr().IsValid() || r.Count("x", 1) != 0 {
		t.Fatal("a read after the error returned data")
	}
	if r.Err() != first {
		t.Fatalf("error replaced: %v", r.Err())
	}
}

func TestMalformedValues(t *testing.T) {
	for name, tc := range map[string]struct {
		b    []byte
		read func(*Reader)
	}{
		"addr of 5 bytes":       {[]byte{5, 1, 2, 3, 4, 5}, func(r *Reader) { r.Addr() }},
		"prefix /33 on v4":      {[]byte{4, 10, 0, 0, 0, 33}, func(r *Reader) { r.Prefix() }},
		"uvarint overflow":      {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(r *Reader) { r.Uvarint() }},
		"string longer than it": {binary.AppendUvarint(nil, 1<<62), func(r *Reader) { r.Str() }},
		"take negative":         {[]byte{1}, func(r *Reader) { r.Take(-1) }},
	} {
		r := NewReader(tc.b)
		if tc.read(r); r.Err() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestCountBoundsAllocation: a count is accepted only if that many elements
// of the stated minimum size still fit.
func TestCountBoundsAllocation(t *testing.T) {
	payload := append(binary.AppendUvarint(nil, 3), make([]byte, 12)...)
	if n := NewReader(payload).Count("x", 4); n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}
	r := NewReader(payload)
	if n := r.Count("walks", 5); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "walks count") {
		t.Fatalf("3 five-byte elements in 12 bytes: n = %d, err = %v", n, r.Err())
	}
	r = NewReader(binary.AppendUvarint(nil, 1<<62))
	if n := r.Count("x", 1); n != 0 || r.Err() == nil {
		t.Fatalf("count 1<<62 of nothing: n = %d, err = %v", n, r.Err())
	}
}
