// Package ciscolog renders captured control-plane I/Os as Cisco-IOS-style
// debug log lines and parses such logs back into I/O events. It is the
// substitute for the paper's §7 substrate: the authors ran Cisco VM images
// under GNS3, enabled logging, and "captured and parsed the outputs of the
// logs" — this package is that pipeline, driven by the simulator instead
// of proprietary images.
//
// Fidelity notes that matter to inference: timestamps are truncated to
// milliseconds (IOS log resolution), neighbor identity appears as a session
// address rather than a router name (the parser takes a resolver), and
// ground-truth causality is — of course — absent from the text. Whatever
// the happens-before machinery recovers, it recovers from the same
// information a real deployment would have.
//
// The emit and parse hot paths are allocation-free: AppendLine renders
// into a caller-owned buffer via strconv.Append*-style helpers, and the
// byte-level parser interns prefixes, addresses, details, and AS paths so
// a steady-state log stream parses without per-line garbage. The original
// fmt/strings implementations survive in reference.go as the differential
// baseline.
package ciscolog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/metrics"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// epoch anchors virtual time zero onto a fixed IOS-style wall clock. The
// paper's logs were captured in 2017; any fixed anchor works.
var epoch = time.Date(2017, time.November, 1, 10, 0, 0, 0, time.UTC)

// appendTimestamp renders the IOS stamp without fmt: "*Nov  1 10:00:25.004"
// — month, space-padded day (%2d), zero-padded clock, 3-digit millis.
func appendTimestamp(dst []byte, t netsim.VirtualTime) []byte {
	w := epoch.Add(time.Duration(t))
	_, mon, day := w.Date()
	hour, min, sec := w.Clock()
	ms := w.Nanosecond() / int(time.Millisecond)
	dst = append(dst, '*')
	dst = append(dst, mon.String()[:3]...)
	dst = append(dst, ' ')
	if day < 10 {
		dst = append(dst, ' ', byte('0'+day))
	} else {
		dst = strconv.AppendInt(dst, int64(day), 10)
	}
	dst = append(dst, ' ')
	dst = append2(dst, hour)
	dst = append(dst, ':')
	dst = append2(dst, min)
	dst = append(dst, ':')
	dst = append2(dst, sec)
	dst = append(dst, '.')
	return append3(dst, ms)
}

func append2(dst []byte, v int) []byte { return append(dst, byte('0'+v/10), byte('0'+v%10)) }

func append3(dst []byte, v int) []byte {
	return append(dst, byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10))
}

// daysPerMonth matches what the reference time.Parse accepted: the parse
// happens in year 0, which is leap, so Feb 29 is accepted (and normalizes
// to Mar 1 once the epoch year is applied — same as the reference).
var daysPerMonth = [12]int{31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// monthFromBytes matches a 3-letter month name case-insensitively, as
// time.Parse's layout lookup does.
func monthFromBytes(b []byte) (time.Month, bool) {
	if len(b) < 3 {
		return 0, false
	}
	lower := func(c byte) byte {
		if 'A' <= c && c <= 'Z' {
			return c + 'a' - 'A'
		}
		return c
	}
	c0, c1, c2 := lower(b[0]), lower(b[1]), lower(b[2])
	for m := time.January; m <= time.December; m++ {
		n := m.String()
		if c0 == n[0]|0x20 && c1 == n[1] && c2 == n[2] {
			return m, true
		}
	}
	return 0, false
}

// eatNum consumes 1..max digits greedily; eatNumFixed exactly n digits.
func eatNum(b []byte, i, max int) (v, next int, ok bool) {
	n := 0
	for i < len(b) && n < max && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int(b[i]-'0')
		i++
		n++
	}
	return v, i, n > 0
}

func eatNumFixed(b []byte, i, n int) (v, next int, ok bool) {
	for k := 0; k < n; k++ {
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, i, false
		}
		v = v*10 + int(b[i]-'0')
		i++
	}
	return v, i, true
}

// parseTimestampBytes is the manual-scan equivalent of
// time.Parse("Jan _2 15:04:05.000"): case-insensitive month, 1-2 digit
// day and hour, 2-digit minute/second, '.' or ',' before exactly three
// millisecond digits, nothing trailing.
func parseTimestampBytes(b []byte) (netsim.VirtualTime, error) {
	bad := func() (netsim.VirtualTime, error) {
		return 0, fmt.Errorf("ciscolog: bad timestamp %q", b)
	}
	s := b
	if len(s) > 0 && s[0] == '*' {
		s = s[1:]
	}
	mon, ok := monthFromBytes(s)
	if !ok {
		return bad()
	}
	i := 3
	if i >= len(s) || s[i] != ' ' {
		return bad()
	}
	i++
	if i < len(s) && s[i] == ' ' {
		i++
	}
	day, i, ok := eatNum(s, i, 2)
	if !ok || day < 1 || day > daysPerMonth[mon-1] {
		return bad()
	}
	if i >= len(s) || s[i] != ' ' {
		return bad()
	}
	i++
	hour, i, ok := eatNum(s, i, 2)
	if !ok || hour > 23 {
		return bad()
	}
	if i >= len(s) || s[i] != ':' {
		return bad()
	}
	min, i, ok := eatNumFixed(s, i+1, 2)
	if !ok || min > 59 {
		return bad()
	}
	if i >= len(s) || s[i] != ':' {
		return bad()
	}
	sec, i, ok := eatNumFixed(s, i+1, 2)
	if !ok || sec > 59 {
		return bad()
	}
	if i >= len(s) || (s[i] != '.' && s[i] != ',') {
		return bad()
	}
	ms, i, ok := eatNumFixed(s, i+1, 3)
	if !ok || i != len(s) {
		return bad()
	}
	w := time.Date(epoch.Year(), mon, day, hour, min, sec, ms*int(time.Millisecond), time.UTC)
	return netsim.VirtualTime(w.Sub(epoch)), nil
}

func protoTag(p route.Protocol) string {
	switch p {
	case route.ProtoBGP:
		return "BGP"
	case route.ProtoOSPF:
		return "OSPF"
	case route.ProtoRIP:
		return "RIP"
	case route.ProtoEIGRP:
		return "EIGRP"
	default:
		return "IP"
	}
}

// appendAddr matches netip.Addr.String, including its "invalid IP" form
// for the zero Addr (AppendTo alone renders it as the empty string).
func appendAddr(dst []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(dst, "invalid IP"...)
	}
	return a.AppendTo(dst)
}

// appendPrefix matches netip.Prefix.String, including "invalid Prefix".
func appendPrefix(dst []byte, p netip.Prefix) []byte {
	if !p.IsValid() {
		return append(dst, "invalid Prefix"...)
	}
	return p.AppendTo(dst)
}

func appendNhOrSelf(dst []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(dst, "self"...)
	}
	return a.AppendTo(dst)
}

// appendHopsOrSelf renders a FIB I/O's next hops: an ECMP set as its
// members joined by "|", the form fib.Entry prints.
func appendHopsOrSelf(dst []byte, io *capture.IO) []byte {
	if len(io.NextHops) < 2 {
		return appendNhOrSelf(dst, io.NextHop)
	}
	for i, h := range io.NextHops {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = h.AppendTo(dst)
	}
	return dst
}

func appendPathOrNone(dst []byte, a route.BGPAttrs) []byte {
	if len(a.ASPath) == 0 {
		return append(dst, "local"...)
	}
	for i, as := range a.ASPath {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendUint(dst, uint64(as), 10)
	}
	return dst
}

func appendProto(dst []byte, p route.Protocol) []byte {
	switch p {
	case route.ProtoUnknown, route.ProtoConnected, route.ProtoStatic,
		route.ProtoBGP, route.ProtoOSPF, route.ProtoRIP, route.ProtoEIGRP:
		return append(dst, p.String()...) // constant strings, no alloc
	default:
		dst = append(dst, "proto("...)
		dst = strconv.AppendUint(dst, uint64(p), 10)
		return append(dst, ')')
	}
}

// appendType matches capture.Type.String, including its "io(N)" form for
// unknown values, without going through fmt. SessionDown is the last
// named type; the emit switch above handles every named one, so this
// only sees out-of-range values in practice.
func appendType(dst []byte, t capture.Type) []byte {
	if t <= capture.SessionDown {
		return append(dst, t.String()...) // constant name, no alloc
	}
	dst = append(dst, "io("...)
	dst = strconv.AppendUint(dst, uint64(t), 10)
	return append(dst, ')')
}

// appendProtoLead writes the "<TAG>(0): " line lead shared by the
// routing-protocol debug formats.
func appendProtoLead(dst []byte, p route.Protocol) []byte {
	dst = append(dst, ": "...)
	dst = append(dst, protoTag(p)...)
	return append(dst, "(0): "...)
}

// AppendLine appends the log line for io (without a trailing newline) to
// dst and returns the extended buffer. The line omits the router name: logs
// are per-router files, as on real gear. The rendered bytes are identical
// to the reference fmt-based emitter for every I/O.
func AppendLine(dst []byte, io capture.IO) []byte {
	dst = appendTimestamp(dst, io.Time)
	switch io.Type {
	case capture.ConfigChange:
		dst = append(dst, ": %SYS-5-CONFIG_I: Configured from console by admin on vty0 ("...)
		dst = append(dst, io.Detail...)
		return append(dst, ')')
	case capture.SoftReconfig:
		return append(dst, ": %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started"...)
	case capture.SessionDown:
		dst = append(dst, ": %BGP-5-ADJCHANGE: neighbor "...)
		dst = appendAddr(dst, io.PeerAddr)
		return append(dst, " Down"...)
	case capture.LinkUp:
		dst = append(dst, ": %LINEPROTO-5-UPDOWN: Line protocol on Interface "...)
		dst = append(dst, io.Detail...)
		return append(dst, ", changed state to up"...)
	case capture.LinkDown:
		dst = append(dst, ": %LINEPROTO-5-UPDOWN: Line protocol on Interface "...)
		dst = append(dst, io.Detail...)
		return append(dst, ", changed state to down"...)
	case capture.RecvAdvert:
		if io.Proto == route.ProtoOSPF {
			dst = append(dst, ": OSPF: rcv. "...)
			dst = append(dst, io.Detail...)
			dst = append(dst, " from "...)
			return appendAddr(dst, io.PeerAddr)
		}
		dst = appendProtoLead(dst, io.Proto)
		dst = appendAddr(dst, io.PeerAddr)
		dst = append(dst, " rcvd UPDATE about "...)
		return appendUpdateTail(dst, io)
	case capture.RecvWithdraw:
		dst = appendProtoLead(dst, io.Proto)
		dst = appendAddr(dst, io.PeerAddr)
		dst = append(dst, " rcvd WITHDRAW about "...)
		return appendPrefix(dst, io.Prefix)
	case capture.SendAdvert:
		if io.Proto == route.ProtoOSPF {
			dst = append(dst, ": OSPF: send "...)
			dst = append(dst, io.Detail...)
			dst = append(dst, " to "...)
			return appendAddr(dst, io.PeerAddr)
		}
		dst = appendProtoLead(dst, io.Proto)
		dst = appendAddr(dst, io.PeerAddr)
		dst = append(dst, " send UPDATE about "...)
		return appendUpdateTail(dst, io)
	case capture.SendWithdraw:
		dst = appendProtoLead(dst, io.Proto)
		dst = appendAddr(dst, io.PeerAddr)
		dst = append(dst, " send WITHDRAW about "...)
		return appendPrefix(dst, io.Prefix)
	case capture.RIBInstall:
		dst = appendProtoLead(dst, io.Proto)
		dst = append(dst, "Revise route installing "...)
		dst = appendPrefix(dst, io.Prefix)
		dst = append(dst, " -> "...)
		dst = appendNhOrSelf(dst, io.NextHop)
		return append(dst, " to main IP table"...)
	case capture.RIBRemove:
		dst = appendProtoLead(dst, io.Proto)
		dst = append(dst, "Revise route removing "...)
		dst = appendPrefix(dst, io.Prefix)
		return append(dst, " from main IP table"...)
	case capture.FIBInstall:
		dst = append(dst, ": %FIB-6-INSTALL: "...)
		dst = appendPrefix(dst, io.Prefix)
		dst = append(dst, " via "...)
		dst = appendHopsOrSelf(dst, &io)
		dst = append(dst, " installed in FIB ("...)
		dst = appendProto(dst, io.Proto)
		return append(dst, ')')
	case capture.FIBRemove:
		dst = append(dst, ": %FIB-6-REMOVE: "...)
		dst = appendPrefix(dst, io.Prefix)
		dst = append(dst, " removed from FIB ("...)
		dst = appendProto(dst, io.Proto)
		return append(dst, ')')
	default:
		dst = append(dst, ": %SYS-7-UNKNOWN: "...)
		return appendType(dst, io.Type)
	}
}

// appendUpdateTail renders ", next hop <nh>, localpref <lp>, path <path>"
// after the prefix of an UPDATE line.
func appendUpdateTail(dst []byte, io capture.IO) []byte {
	dst = appendPrefix(dst, io.Prefix)
	dst = append(dst, ", next hop "...)
	dst = appendNhOrSelf(dst, io.NextHop)
	dst = append(dst, ", localpref "...)
	dst = strconv.AppendUint(dst, uint64(io.Attrs.LocalPref), 10)
	dst = append(dst, ", path "...)
	return appendPathOrNone(dst, io.Attrs)
}

// EmitLog writes the lines for one router's I/Os to w, reusing one render
// buffer for the whole batch.
func EmitLog(w io.Writer, ios []capture.IO) error {
	buf := make([]byte, 0, 160)
	for i := range ios {
		buf = AppendLine(buf[:0], ios[i])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Resolver maps a peer session address to a router name; it stands in for
// the operator's knowledge of their own topology. Returning "" leaves the
// peer unresolved (inference degrades gracefully).
type Resolver func(netip.Addr) string

// Neighbor maps a router's interface to the router at the other end of its
// link, the same knowledge of the topology as a Resolver's. A link's line
// names only the interface, and inference needs the peer: a link going down
// opens the next epoch of the adjacency's channels (hbr). Returning ""
// leaves the peer unresolved.
type Neighbor func(router, iface string) string

// Parser turns log lines back into I/O events, assigning fresh IDs. The
// hot path scans bytes directly and interns every recurring value —
// prefixes, addresses, resolved peer names, details, AS paths — so
// steady-state parsing allocates almost nothing per line. A Parser is not
// safe for concurrent use.
type Parser struct {
	Resolve Resolver
	// Neighbor optionally resolves the peer of a link's up and down lines.
	Neighbor Neighbor
	// Metrics optionally receives ciscolog.parse.* counters and timers.
	Metrics *metrics.Registry
	nextID  uint64

	prefixes map[string]netip.Prefix
	addrs    map[string]netip.Addr
	names    map[netip.Addr]string
	details  map[string]string
	paths    map[string][]uint32
	protos   map[string]route.Protocol
}

// NewParser builds a parser; resolve may be nil.
func NewParser(resolve Resolver) *Parser {
	if resolve == nil {
		resolve = func(netip.Addr) string { return "" }
	}
	return &Parser{
		Resolve:  resolve,
		nextID:   1,
		prefixes: map[string]netip.Prefix{},
		addrs:    map[string]netip.Addr{},
		names:    map[netip.Addr]string{},
		details:  map[string]string{},
		paths:    map[string][]uint32{},
		protos:   map[string]route.Protocol{},
	}
}

// intern returns a canonical string for b, allocating only on first sight.
func (p *Parser) intern(b []byte) string {
	if s, ok := p.details[string(b)]; ok {
		return s
	}
	s := string(b)
	p.details[s] = s
	return s
}

func (p *Parser) parsePrefix(b []byte) (netip.Prefix, error) {
	if pfx, ok := p.prefixes[string(b)]; ok {
		return pfx, nil
	}
	pfx, err := netip.ParsePrefix(string(b))
	if err != nil {
		return netip.Prefix{}, err
	}
	p.prefixes[string(b)] = pfx
	return pfx, nil
}

func (p *Parser) parseAddr(b []byte) (netip.Addr, error) {
	if a, ok := p.addrs[string(b)]; ok {
		return a, nil
	}
	a, err := netip.ParseAddr(string(b))
	if err != nil {
		return netip.Addr{}, err
	}
	p.addrs[string(b)] = a
	return a, nil
}

// parseHops parses a FIB line's next hops: one address, or an ECMP set
// joined by "|", whose first member is also the next hop.
func (p *Parser) parseHops(b []byte) (netip.Addr, []netip.Addr, error) {
	if bytes.IndexByte(b, '|') < 0 {
		a, err := p.parseAddr(b)
		return a, nil, err
	}
	var hops []netip.Addr
	for _, part := range bytes.Split(b, []byte{'|'}) {
		a, err := p.parseAddr(part)
		if err != nil {
			return netip.Addr{}, nil, err
		}
		hops = append(hops, a)
	}
	return hops[0], hops, nil
}

// resolveAddr memoizes the Resolver per address (resolvers are assumed
// deterministic, as a topology lookup is).
func (p *Parser) resolveAddr(a netip.Addr) string {
	if n, ok := p.names[a]; ok {
		return n
	}
	n := p.Resolve(a)
	p.names[a] = n
	return n
}

func (p *Parser) parseProtocol(b []byte) route.Protocol {
	if pr, ok := p.protos[string(b)]; ok {
		return pr
	}
	pr := route.ParseProtocol(string(b))
	p.protos[string(b)] = pr
	return pr
}

// asciiSpace mirrors the whitespace class strings.Fields uses for ASCII.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && asciiSpace[b[0]] {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace[b[len(b)-1]] {
		b = b[:len(b)-1]
	}
	return b
}

// nextFieldBytes returns the bounds of the first whitespace-delimited
// field at or after i, with lo == len(b) when none remains.
func nextFieldBytes(b []byte, i int) (lo, hi int) {
	for i < len(b) && asciiSpace[b[i]] {
		i++
	}
	lo = i
	for i < len(b) && !asciiSpace[b[i]] {
		i++
	}
	return lo, i
}

func firstFieldBytes(b []byte) ([]byte, bool) {
	lo, hi := nextFieldBytes(b, 0)
	if lo == hi {
		return nil, false
	}
	return b[lo:hi], true
}

// parseUint32 matches strconv.ParseUint(s, 10, 32): digits only, no sign,
// no empty string, 32-bit range.
func parseUint32(b []byte) (uint32, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		if v > 1<<32-1 {
			return 0, false
		}
	}
	return uint32(v), true
}

func (p *Parser) parse(router string, line []byte) (capture.IO, error) {
	line = trimSpaceBytes(line)
	if bytes.IndexByte(line, '\n') >= 0 || bytes.IndexByte(line, '\r') >= 0 {
		return capture.IO{}, fmt.Errorf("ciscolog: embedded newline in %q", line)
	}
	colon := bytes.Index(line, []byte(": "))
	if colon < 0 {
		return capture.IO{}, fmt.Errorf("ciscolog: no timestamp separator in %q", line)
	}
	ts, err := parseTimestampBytes(line[:colon])
	if err != nil {
		return capture.IO{}, err
	}
	rest := line[colon+2:]
	io := capture.IO{Router: router, Time: ts}
	io.ID = p.nextID
	p.nextID++

	switch {
	case bytes.HasPrefix(rest, []byte("%SYS-5-CONFIG_I:")):
		io.Type = capture.ConfigChange
		if i := bytes.IndexByte(rest, '('); i >= 0 && rest[len(rest)-1] == ')' {
			io.Detail = p.intern(rest[i+1 : len(rest)-1])
		}
	case bytes.HasPrefix(rest, []byte("%BGP-5-SOFTRECONFIG:")):
		io.Type = capture.SoftReconfig
		io.Proto = route.ProtoBGP
	case bytes.HasPrefix(rest, []byte("%BGP-5-ADJCHANGE: neighbor ")):
		io.Type = capture.SessionDown
		io.Proto = route.ProtoBGP
		body, down := bytes.CutSuffix(rest[len("%BGP-5-ADJCHANGE: neighbor "):], []byte(" Down"))
		if !down {
			return io, fmt.Errorf("ciscolog: unsupported adjacency change %q", rest)
		}
		if io.PeerAddr, err = p.parseAddr(body); err != nil {
			return io, err
		}
		io.Peer = p.resolveAddr(io.PeerAddr)
	case bytes.HasPrefix(rest, []byte("%LINEPROTO-5-UPDOWN:")):
		io.Type = capture.LinkDown
		if bytes.HasSuffix(rest, []byte("to up")) {
			io.Type = capture.LinkUp
		}
		marker := []byte("Interface ")
		if i := bytes.Index(rest, marker); i >= 0 {
			tail := rest[i+len(marker):]
			if j := bytes.IndexByte(tail, ','); j >= 0 {
				io.Detail = p.intern(tail[:j])
			}
		}
		if p.Neighbor != nil {
			io.Peer = p.Neighbor(router, io.Detail)
		}
	case bytes.HasPrefix(rest, []byte("%FIB-6-INSTALL:")):
		io.Type = capture.FIBInstall
		body := rest[len("%FIB-6-INSTALL:"):]
		lo0, hi0 := nextFieldBytes(body, 0)
		_, hi1 := nextFieldBytes(body, hi0)
		lo2, hi2 := nextFieldBytes(body, hi1)
		if lo2 == hi2 {
			return io, fmt.Errorf("ciscolog: short FIB line %q", rest)
		}
		if io.Prefix, err = p.parsePrefix(body[lo0:hi0]); err != nil {
			return io, err
		}
		if nh := body[lo2:hi2]; string(nh) != "self" {
			if io.NextHop, io.NextHops, err = p.parseHops(nh); err != nil {
				return io, err
			}
		}
		io.Proto = p.fibProto(rest)
	case bytes.HasPrefix(rest, []byte("%FIB-6-REMOVE:")):
		io.Type = capture.FIBRemove
		body := rest[len("%FIB-6-REMOVE:"):]
		lo0, hi0 := nextFieldBytes(body, 0)
		if lo0 == hi0 {
			return io, fmt.Errorf("ciscolog: short FIB line %q", rest)
		}
		if io.Prefix, err = p.parsePrefix(body[lo0:hi0]); err != nil {
			return io, err
		}
		io.Proto = p.fibProto(rest)
	case bytes.HasPrefix(rest, []byte("OSPF: rcv. ")), bytes.HasPrefix(rest, []byte("OSPF: send ")):
		io.Proto = route.ProtoOSPF
		io.Type = capture.RecvAdvert
		marker := []byte(" from ")
		if bytes.HasPrefix(rest, []byte("OSPF: send ")) {
			io.Type = capture.SendAdvert
			marker = []byte(" to ")
		}
		// The reference trimmed both prefixes in sequence; preserve that
		// (a rcv body that itself starts with "OSPF: send " loses it too).
		body := bytes.TrimPrefix(bytes.TrimPrefix(rest, []byte("OSPF: rcv. ")), []byte("OSPF: send "))
		if i := bytes.LastIndex(body, marker); i >= 0 {
			io.Detail = p.intern(body[:i])
			if addr, err := p.parseAddr(body[i+len(marker):]); err == nil {
				io.PeerAddr = addr
				io.Peer = p.resolveAddr(addr)
			}
		}
	default:
		return p.parseProtoLine(io, rest)
	}
	return io, nil
}

// fibProto extracts the trailing "(proto)" tag from a FIB line; lines
// without one (e.g. logs from gear that does not tag the source) parse as
// ProtoUnknown, which inference tolerates.
func (p *Parser) fibProto(rest []byte) route.Protocol {
	i := bytes.LastIndexByte(rest, '(')
	if i < 0 || rest[len(rest)-1] != ')' {
		return route.ProtoUnknown
	}
	return p.parseProtocol(rest[i+1 : len(rest)-1])
}

// parseProtoLine handles "<TAG>(0): ..." routing-protocol debug lines.
func (p *Parser) parseProtoLine(io capture.IO, rest []byte) (capture.IO, error) {
	paren := bytes.Index(rest, []byte("(0): "))
	if paren < 0 {
		return io, fmt.Errorf("ciscolog: unrecognized line %q", rest)
	}
	io.Proto = tagProtoBytes(rest[:paren])
	body := rest[paren+5:]
	var err error
	switch {
	case bytes.HasPrefix(body, []byte("Revise route installing ")):
		io.Type = capture.RIBInstall
		body = body[len("Revise route installing "):]
		arrow := bytes.Index(body, []byte(" -> "))
		if arrow < 0 {
			return io, fmt.Errorf("ciscolog: bad revise line %q", body)
		}
		if io.Prefix, err = p.parsePrefix(body[:arrow]); err != nil {
			return io, err
		}
		nh, ok := firstFieldBytes(body[arrow+4:])
		if !ok {
			return io, fmt.Errorf("ciscolog: bad revise line %q", body)
		}
		if string(nh) != "self" {
			if io.NextHop, err = p.parseAddr(nh); err != nil {
				return io, err
			}
		}
	case bytes.HasPrefix(body, []byte("Revise route removing ")):
		io.Type = capture.RIBRemove
		body = body[len("Revise route removing "):]
		pfx, ok := firstFieldBytes(body)
		if !ok {
			return io, fmt.Errorf("ciscolog: bad revise line %q", body)
		}
		if io.Prefix, err = p.parsePrefix(pfx); err != nil {
			return io, err
		}
	default:
		// "<peer> rcvd|send UPDATE|WITHDRAW about <prefix>[, next hop <nh>,
		// localpref <lp>, path <path>]"
		lo0, hi0 := nextFieldBytes(body, 0)
		lo1, hi1 := nextFieldBytes(body, hi0)
		lo2, hi2 := nextFieldBytes(body, hi1)
		lo3, hi3 := nextFieldBytes(body, hi2)
		lo4, hi4 := nextFieldBytes(body, hi3)
		if lo0 == hi0 || lo1 == hi1 || lo2 == hi2 || lo3 == hi3 || lo4 == hi4 {
			return io, fmt.Errorf("ciscolog: short proto line %q", body)
		}
		if io.PeerAddr, err = p.parseAddr(body[lo0:hi0]); err != nil {
			return io, err
		}
		io.Peer = p.resolveAddr(io.PeerAddr)
		dir, kind := body[lo1:hi1], body[lo2:hi2]
		pfx := bytes.TrimSuffix(body[lo4:hi4], []byte(","))
		if io.Prefix, err = p.parsePrefix(pfx); err != nil {
			return io, err
		}
		switch {
		case string(dir) == "rcvd" && string(kind) == "UPDATE":
			io.Type = capture.RecvAdvert
		case string(dir) == "rcvd" && string(kind) == "WITHDRAW":
			io.Type = capture.RecvWithdraw
		case string(dir) == "send" && string(kind) == "UPDATE":
			io.Type = capture.SendAdvert
		case string(dir) == "send" && string(kind) == "WITHDRAW":
			io.Type = capture.SendWithdraw
		default:
			return io, fmt.Errorf("ciscolog: unknown direction %q %q", dir, kind)
		}
		if io.Type == capture.RecvAdvert || io.Type == capture.SendAdvert {
			p.parseUpdateTail(&io, body)
		}
	}
	return io, nil
}

func tagProtoBytes(b []byte) route.Protocol {
	switch string(b) {
	case "BGP":
		return route.ProtoBGP
	case "OSPF":
		return route.ProtoOSPF
	case "RIP":
		return route.ProtoRIP
	case "EIGRP":
		return route.ProtoEIGRP
	default:
		return route.ProtoUnknown
	}
}

func (p *Parser) parseUpdateTail(io *capture.IO, body []byte) {
	if i := bytes.Index(body, []byte("next hop ")); i >= 0 {
		if f, ok := firstFieldBytes(body[i+len("next hop "):]); ok {
			f = bytes.TrimSuffix(f, []byte(","))
			if string(f) != "self" {
				if a, err := p.parseAddr(f); err == nil {
					io.NextHop = a
				}
			}
		}
	}
	if i := bytes.Index(body, []byte("localpref ")); i >= 0 {
		if f, ok := firstFieldBytes(body[i+len("localpref "):]); ok {
			f = bytes.TrimSuffix(f, []byte(","))
			if v, ok := parseUint32(f); ok {
				io.Attrs.LocalPref = v
			}
		}
	}
	if i := bytes.Index(body, []byte("path ")); i >= 0 {
		io.Attrs.ASPath = p.internPath(body[i+len("path "):])
	}
}

// internPath parses and interns an AS-path tail ("65001 65002" → shared
// []uint32). Unparseable fields are skipped, as the reference did; a tail
// with no parseable fields yields nil.
func (p *Parser) internPath(tail []byte) []uint32 {
	if path, ok := p.paths[string(tail)]; ok {
		return path
	}
	var path []uint32
	for i := 0; i < len(tail); {
		lo, hi := nextFieldBytes(tail, i)
		if lo == hi {
			break
		}
		if v, ok := parseUint32(tail[lo:hi]); ok {
			path = append(path, v)
		}
		i = hi
	}
	p.paths[string(tail)] = path
	return path
}

// ParseReader streams a per-router log, invoking fn for every parsed I/O
// without accumulating a slice — the zero-alloc ingestion path for
// replayed logs. Parsing stops at the first parse or callback error.
func (p *Parser) ParseReader(router string, r io.Reader, fn func(capture.IO) error) error {
	start := time.Now()
	lines := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var err error
	for sc.Scan() {
		b := trimSpaceBytes(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		lines++
		var io capture.IO
		if io, err = p.parse(router, b); err != nil {
			break
		}
		if err = fn(io); err != nil {
			break
		}
	}
	if err == nil {
		err = sc.Err()
	}
	p.Metrics.Counter("ciscolog.parse.lines").Add(int64(lines))
	if err != nil {
		p.Metrics.Counter("ciscolog.parse.errors").Inc()
	}
	p.Metrics.Histogram("ciscolog.parse").Observe(time.Since(start))
	return err
}

// ParseLog parses a whole per-router log stream.
func (p *Parser) ParseLog(router string, r io.Reader) ([]capture.IO, error) {
	var out []capture.IO
	err := p.ParseReader(router, r, func(io capture.IO) error {
		out = append(out, io)
		return nil
	})
	return out, err
}
