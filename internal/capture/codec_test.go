package capture

import (
	"net/netip"
	"reflect"
	"testing"

	"hbverify/internal/wire"
)

var (
	addrType   = reflect.TypeOf(netip.Addr{})
	prefixType = reflect.TypeOf(netip.Prefix{})
)

// fill sets every leaf under v to a distinct non-zero value (slices get two
// elements), counting up from *next.
func fill(t *testing.T, v reflect.Value, next *uint8) {
	*next++
	n := *next
	switch {
	case v.Type() == addrType:
		v.Set(reflect.ValueOf(netip.AddrFrom4([4]byte{10, 0, 0, n})))
	case v.Type() == prefixType:
		v.Set(reflect.ValueOf(netip.PrefixFrom(netip.AddrFrom4([4]byte{n, 0, 0, 0}), 8)))
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), next)
		}
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), next)
		fill(t, v.Index(1), next)
	case v.CanInt():
		v.SetInt(int64(n))
	case v.CanUint():
		v.SetUint(uint64(n))
	case v.Kind() == reflect.String:
		v.SetString(string(rune('a' + n)))
	default:
		t.Fatalf("IO holds a %s: teach fill and the codec about it", v.Type())
	}
}

// TestCodecCoversEveryField is the guard against the drift that lost
// NextHops: a field added to IO (or to route.BGPAttrs inside it) and
// forgotten in AppendIO/ReadIO comes back zero and fails the comparison.
func TestCodecCoversEveryField(t *testing.T) {
	var io IO
	var next uint8
	fill(t, reflect.ValueOf(&io).Elem(), &next)
	enc := AppendIO(nil, &io)
	r := wire.NewReader(enc)
	got := ReadIO(r)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Len())
	}
	if !reflect.DeepEqual(got, io) {
		t.Fatalf("round trip lost a field:\n got %#v\nwant %#v", got, io)
	}
	// Every strict prefix is an error.
	for cut := range enc {
		r := wire.NewReader(enc[:cut])
		ReadIO(r)
		if r.Err() == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(enc))
		}
	}
}

func TestZeroIOEncoding(t *testing.T) {
	enc := AppendIO(nil, &IO{})
	if len(enc) != MinIOBytes {
		t.Fatalf("zero IO encodes to %d bytes, MinIOBytes = %d", len(enc), MinIOBytes)
	}
	r := wire.NewReader(enc)
	if got := ReadIO(r); r.Err() != nil || !reflect.DeepEqual(got, IO{}) {
		t.Fatalf("zero IO decodes to %+v (err %v): empty lists must be nil", got, r.Err())
	}
}
