// The binary encoding of an IO. It lives next to the struct so that a field
// added to one is added to the other (codec_test.go fails otherwise), and
// it is the only one: checkpoints (internal/hbg) and provenance frames
// (internal/dist) both carry I/Os in this layout.

package capture

import (
	"encoding/binary"

	"hbverify/internal/netsim"
	"hbverify/internal/route"
	"hbverify/internal/wire"
)

// MinIOBytes is the length of the shortest encoding (the zero IO's): what a
// decoder passes to wire.Reader.Count before sizing a slice of I/Os.
const MinIOBytes = 20

// AppendIO appends io's encoding to dst. Every field is included, the
// oracle's too (one byte each when absent), so ReadIO returns an equal IO;
// the encoding is deterministic.
func AppendIO(dst []byte, io *IO) []byte {
	dst = binary.AppendUvarint(dst, io.ID)
	dst = wire.AppendString(dst, io.Router)
	dst = append(dst, byte(io.Type), byte(io.Proto))
	dst = wire.AppendPrefix(dst, io.Prefix)
	dst = wire.AppendAddr(dst, io.NextHop)
	dst = wire.AppendAddrs(dst, io.NextHops)
	dst = wire.AppendString(dst, io.Peer)
	dst = wire.AppendAddr(dst, io.PeerAddr)
	dst = binary.AppendUvarint(dst, uint64(io.Attrs.LocalPref))
	dst = binary.AppendUvarint(dst, uint64(io.Attrs.MED))
	dst = append(dst, byte(io.Attrs.Origin))
	dst = appendUint32s(dst, io.Attrs.ASPath)
	dst = appendUint32s(dst, io.Attrs.Communities)
	dst = wire.AppendAddr(dst, io.Attrs.OriginatorID)
	dst = wire.AppendAddrs(dst, io.Attrs.ClusterList)
	dst = wire.AppendString(dst, io.Detail)
	dst = binary.AppendVarint(dst, int64(io.Time))
	dst = binary.AppendVarint(dst, int64(io.TrueTime))
	dst = binary.AppendUvarint(dst, uint64(len(io.Causes)))
	for _, c := range io.Causes {
		dst = binary.AppendUvarint(dst, c)
	}
	return dst
}

// ReadIO decodes one AppendIO encoding; on malformed input r.Err reports it
// and the result is meaningless. Empty lists decode to nil.
func ReadIO(r *wire.Reader) IO {
	var io IO
	io.ID = r.Uvarint()
	io.Router = r.Str()
	io.Type, io.Proto = Type(r.Byte()), route.Protocol(r.Byte())
	io.Prefix = r.Prefix()
	io.NextHop = r.Addr()
	io.NextHops = r.Addrs()
	io.Peer = r.Str()
	io.PeerAddr = r.Addr()
	io.Attrs.LocalPref = uint32(r.Uvarint())
	io.Attrs.MED = uint32(r.Uvarint())
	io.Attrs.Origin = route.Origin(r.Byte())
	io.Attrs.ASPath = readUint32s(r)
	io.Attrs.Communities = readUint32s(r)
	io.Attrs.OriginatorID = r.Addr()
	io.Attrs.ClusterList = r.Addrs()
	io.Detail = r.Str()
	io.Time = netsim.VirtualTime(r.Varint())
	io.TrueTime = netsim.VirtualTime(r.Varint())
	if n := r.Count("causes", 1); n > 0 {
		io.Causes = make([]uint64, n)
		for i := range io.Causes {
			io.Causes[i] = r.Uvarint()
		}
	}
	return io
}

func appendUint32s(dst []byte, vs []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

func readUint32s(r *wire.Reader) []uint32 {
	n := r.Count("uint32 list", 1)
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(r.Uvarint())
	}
	return out
}
