package ciscolog

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"hbverify/internal/capture"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// Property: AppendLine followed by parse preserves type, prefix, next hop,
// peer address, and millisecond-truncated time for every route-carrying
// I/O shape.
func TestQuickEmitParseRoundTrip(t *testing.T) {
	types := []capture.Type{
		capture.RecvAdvert, capture.RecvWithdraw,
		capture.SendAdvert, capture.SendWithdraw,
		capture.RIBInstall, capture.RIBRemove,
		capture.FIBInstall, capture.FIBRemove,
	}
	protos := []route.Protocol{route.ProtoBGP, route.ProtoRIP, route.ProtoEIGRP}
	f := func(tyIdx, protoIdx uint8, a, b, c byte, bits uint8, ms uint32, lp uint16, pathLen uint8) bool {
		ty := types[int(tyIdx)%len(types)]
		proto := protos[int(protoIdx)%len(protos)]
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{a | 1, b, c, 0}), int(bits%25)+8).Masked()
		io := capture.IO{
			Router: "rX", Type: ty, Proto: proto, Prefix: pfx,
			Time: netsim.VirtualTime(ms) * 1_000_000, // whole milliseconds
		}
		switch ty {
		case capture.RecvAdvert, capture.RecvWithdraw, capture.SendAdvert, capture.SendWithdraw:
			io.PeerAddr = netip.AddrFrom4([4]byte{10, a, b, 1})
		}
		switch ty {
		case capture.RecvAdvert, capture.SendAdvert, capture.RIBInstall, capture.FIBInstall:
			io.NextHop = netip.AddrFrom4([4]byte{10, c, b, 2})
		}
		if ty == capture.RecvAdvert || ty == capture.SendAdvert {
			io.Attrs.LocalPref = uint32(lp)
			for i := 0; i < int(pathLen%4); i++ {
				io.Attrs.ASPath = append(io.Attrs.ASPath, uint32(i)+100)
			}
		}
		p := NewParser(nil)
		got, err := p.parse("rX", AppendLine(nil, io))
		if err != nil {
			return false
		}
		if got.Type != io.Type || got.Proto != io.Proto || got.Prefix != io.Prefix {
			return false
		}
		if got.Time != io.Time {
			return false
		}
		if got.PeerAddr != io.PeerAddr {
			return false
		}
		switch ty {
		case capture.RecvAdvert, capture.SendAdvert, capture.RIBInstall, capture.FIBInstall:
			if got.NextHop != io.NextHop {
				return false
			}
		}
		if ty == capture.RecvAdvert || ty == capture.SendAdvert {
			if got.Attrs.LocalPref != io.Attrs.LocalPref || len(got.Attrs.ASPath) != len(io.Attrs.ASPath) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Fatal(err)
	}
}

// Property: timestamps survive the round trip for any millisecond value
// within a simulated day.
func TestQuickTimestampRoundTrip(t *testing.T) {
	f := func(ms uint32) bool {
		vt := netsim.VirtualTime(ms%86_400_000) * 1_000_000
		got, err := parseTimestampBytes(appendTimestamp(nil, vt))
		return err == nil && got == vt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(78))}); err != nil {
		t.Fatal(err)
	}
}
