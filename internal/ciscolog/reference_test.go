// Reference implementations of the emit and parse paths, preserved
// verbatim from before the zero-allocation rewrite, and the differential
// tests over them: FuzzParse and the fast-vs-reference tests assert that
// AppendLine and Parser produce byte- and value-identical results.

package ciscolog

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/metrics"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// ReferenceParseTimestamp is the original time.Parse-based timestamp
// parser.
func ReferenceParseTimestamp(s string) (netsim.VirtualTime, error) {
	s = strings.TrimPrefix(s, "*")
	w, err := time.Parse("Jan _2 15:04:05.000", s)
	if err != nil {
		return 0, fmt.Errorf("ciscolog: bad timestamp %q: %w", s, err)
	}
	w = w.AddDate(epoch.Year(), 0, 0)
	return netsim.VirtualTime(w.Sub(epoch)), nil
}

func refTimestamp(t netsim.VirtualTime) string {
	w := epoch.Add(time.Duration(t))
	return fmt.Sprintf("*%s %2d %02d:%02d:%02d.%03d",
		w.Month().String()[:3], w.Day(), w.Hour(), w.Minute(), w.Second(),
		w.Nanosecond()/int(time.Millisecond))
}

// ReferenceEmit is the original fmt-based emitter.
func ReferenceEmit(io capture.IO) string {
	ts := refTimestamp(io.Time)
	switch io.Type {
	case capture.ConfigChange:
		return fmt.Sprintf("%s: %%SYS-5-CONFIG_I: Configured from console by admin on vty0 (%s)", ts, io.Detail)
	case capture.SoftReconfig:
		return fmt.Sprintf("%s: %%BGP-5-SOFTRECONFIG: inbound soft reconfiguration started", ts)
	case capture.SessionDown:
		return fmt.Sprintf("%s: %%BGP-5-ADJCHANGE: neighbor %s Down", ts, io.PeerAddr)
	case capture.LinkUp:
		return fmt.Sprintf("%s: %%LINEPROTO-5-UPDOWN: Line protocol on Interface %s, changed state to up", ts, io.Detail)
	case capture.LinkDown:
		return fmt.Sprintf("%s: %%LINEPROTO-5-UPDOWN: Line protocol on Interface %s, changed state to down", ts, io.Detail)
	case capture.RecvAdvert:
		if io.Proto == route.ProtoOSPF {
			return fmt.Sprintf("%s: OSPF: rcv. %s from %s", ts, io.Detail, io.PeerAddr)
		}
		return fmt.Sprintf("%s: %s(0): %s rcvd UPDATE about %s, next hop %s, localpref %d, path %s",
			ts, protoTag(io.Proto), io.PeerAddr, io.Prefix, nhOrSelf(io.NextHop), io.Attrs.LocalPref, pathOrNone(io.Attrs))
	case capture.RecvWithdraw:
		return fmt.Sprintf("%s: %s(0): %s rcvd WITHDRAW about %s", ts, protoTag(io.Proto), io.PeerAddr, io.Prefix)
	case capture.SendAdvert:
		if io.Proto == route.ProtoOSPF {
			return fmt.Sprintf("%s: OSPF: send %s to %s", ts, io.Detail, io.PeerAddr)
		}
		return fmt.Sprintf("%s: %s(0): %s send UPDATE about %s, next hop %s, localpref %d, path %s",
			ts, protoTag(io.Proto), io.PeerAddr, io.Prefix, nhOrSelf(io.NextHop), io.Attrs.LocalPref, pathOrNone(io.Attrs))
	case capture.SendWithdraw:
		return fmt.Sprintf("%s: %s(0): %s send WITHDRAW about %s", ts, protoTag(io.Proto), io.PeerAddr, io.Prefix)
	case capture.RIBInstall:
		return fmt.Sprintf("%s: %s(0): Revise route installing %s -> %s to main IP table", ts, protoTag(io.Proto), io.Prefix, nhOrSelf(io.NextHop))
	case capture.RIBRemove:
		return fmt.Sprintf("%s: %s(0): Revise route removing %s from main IP table", ts, protoTag(io.Proto), io.Prefix)
	case capture.FIBInstall:
		nh := nhOrSelf(io.NextHop)
		if len(io.NextHops) > 1 {
			hops := make([]string, len(io.NextHops))
			for i, h := range io.NextHops {
				hops[i] = h.String()
			}
			nh = strings.Join(hops, "|")
		}
		return fmt.Sprintf("%s: %%FIB-6-INSTALL: %s via %s installed in FIB (%s)", ts, io.Prefix, nh, io.Proto)
	case capture.FIBRemove:
		return fmt.Sprintf("%s: %%FIB-6-REMOVE: %s removed from FIB (%s)", ts, io.Prefix, io.Proto)
	default:
		return fmt.Sprintf("%s: %%SYS-7-UNKNOWN: %s", ts, io.Type)
	}
}

func nhOrSelf(a netip.Addr) string {
	if !a.IsValid() {
		return "self"
	}
	return a.String()
}

func pathOrNone(a route.BGPAttrs) string {
	if len(a.ASPath) == 0 {
		return "local"
	}
	return a.PathString()
}

func refFibProto(rest string) route.Protocol {
	i := strings.LastIndex(rest, "(")
	if i < 0 || !strings.HasSuffix(rest, ")") {
		return route.ProtoUnknown
	}
	return route.ParseProtocol(rest[i+1 : len(rest)-1])
}

// ReferenceParser is the original string-based parser, kept as the
// semantic baseline for the interning byte parser.
type ReferenceParser struct {
	Resolve Resolver
	nextID  uint64
}

// NewReferenceParser builds a reference parser; resolve may be nil.
func NewReferenceParser(resolve Resolver) *ReferenceParser {
	if resolve == nil {
		resolve = func(netip.Addr) string { return "" }
	}
	return &ReferenceParser{Resolve: resolve, nextID: 1}
}

// ParseLine parses one log line captured at the named router.
func (p *ReferenceParser) ParseLine(router, line string) (capture.IO, error) {
	line = strings.TrimSpace(line)
	if strings.ContainsAny(line, "\n\r") {
		return capture.IO{}, fmt.Errorf("ciscolog: embedded newline in %q", line)
	}
	colon := strings.Index(line, ": ")
	if colon < 0 {
		return capture.IO{}, fmt.Errorf("ciscolog: no timestamp separator in %q", line)
	}
	ts, err := ReferenceParseTimestamp(line[:colon])
	if err != nil {
		return capture.IO{}, err
	}
	rest := line[colon+2:]
	io := capture.IO{Router: router, Time: ts}
	defer func() { p.nextID++ }()
	io.ID = p.nextID

	switch {
	case strings.HasPrefix(rest, "%SYS-5-CONFIG_I:"):
		io.Type = capture.ConfigChange
		if i := strings.Index(rest, "("); i >= 0 && strings.HasSuffix(rest, ")") {
			io.Detail = rest[i+1 : len(rest)-1]
		}
	case strings.HasPrefix(rest, "%BGP-5-SOFTRECONFIG:"):
		io.Type = capture.SoftReconfig
		io.Proto = route.ProtoBGP
	case strings.HasPrefix(rest, "%BGP-5-ADJCHANGE: neighbor "):
		io.Type = capture.SessionDown
		io.Proto = route.ProtoBGP
		body, down := strings.CutSuffix(strings.TrimPrefix(rest, "%BGP-5-ADJCHANGE: neighbor "), " Down")
		if !down {
			return io, fmt.Errorf("ciscolog: unsupported adjacency change %q", rest)
		}
		if io.PeerAddr, err = netip.ParseAddr(body); err != nil {
			return io, err
		}
		io.Peer = p.Resolve(io.PeerAddr)
	case strings.HasPrefix(rest, "%LINEPROTO-5-UPDOWN:"):
		io.Type = capture.LinkDown
		if strings.HasSuffix(rest, "to up") {
			io.Type = capture.LinkUp
		}
		const marker = "Interface "
		if i := strings.Index(rest, marker); i >= 0 {
			tail := rest[i+len(marker):]
			if j := strings.Index(tail, ","); j >= 0 {
				io.Detail = tail[:j]
			}
		}
	case strings.HasPrefix(rest, "%FIB-6-INSTALL:"):
		io.Type = capture.FIBInstall
		fields := strings.Fields(strings.TrimPrefix(rest, "%FIB-6-INSTALL:"))
		if len(fields) < 3 {
			return io, fmt.Errorf("ciscolog: short FIB line %q", rest)
		}
		if io.Prefix, err = netip.ParsePrefix(fields[0]); err != nil {
			return io, err
		}
		if fields[2] != "self" {
			hops := strings.Split(fields[2], "|")
			for _, h := range hops {
				a, err := netip.ParseAddr(h)
				if err != nil {
					return io, err
				}
				io.NextHops = append(io.NextHops, a)
			}
			io.NextHop = io.NextHops[0]
			if len(hops) == 1 {
				io.NextHops = nil
			}
		}
		io.Proto = refFibProto(rest)
	case strings.HasPrefix(rest, "%FIB-6-REMOVE:"):
		io.Type = capture.FIBRemove
		fields := strings.Fields(strings.TrimPrefix(rest, "%FIB-6-REMOVE:"))
		if len(fields) < 1 {
			return io, fmt.Errorf("ciscolog: short FIB line %q", rest)
		}
		if io.Prefix, err = netip.ParsePrefix(fields[0]); err != nil {
			return io, err
		}
		io.Proto = refFibProto(rest)
	case strings.HasPrefix(rest, "OSPF: rcv. "), strings.HasPrefix(rest, "OSPF: send "):
		io.Proto = route.ProtoOSPF
		io.Type = capture.RecvAdvert
		marker := " from "
		if strings.HasPrefix(rest, "OSPF: send ") {
			io.Type = capture.SendAdvert
			marker = " to "
		}
		body := strings.TrimPrefix(strings.TrimPrefix(rest, "OSPF: rcv. "), "OSPF: send ")
		if i := strings.LastIndex(body, marker); i >= 0 {
			io.Detail = body[:i]
			if addr, err := netip.ParseAddr(body[i+len(marker):]); err == nil {
				io.PeerAddr = addr
				io.Peer = p.Resolve(addr)
			}
		}
	default:
		return p.parseProtoLine(io, rest)
	}
	return io, nil
}

func (p *ReferenceParser) parseProtoLine(io capture.IO, rest string) (capture.IO, error) {
	paren := strings.Index(rest, "(0): ")
	if paren < 0 {
		return io, fmt.Errorf("ciscolog: unrecognized line %q", rest)
	}
	io.Proto = tagProto(rest[:paren])
	body := rest[paren+5:]
	var err error
	switch {
	case strings.HasPrefix(body, "Revise route installing "):
		io.Type = capture.RIBInstall
		body = strings.TrimPrefix(body, "Revise route installing ")
		parts := strings.SplitN(body, " -> ", 2)
		if len(parts) != 2 {
			return io, fmt.Errorf("ciscolog: bad revise line %q", body)
		}
		if io.Prefix, err = netip.ParsePrefix(parts[0]); err != nil {
			return io, err
		}
		nh, ok := refFirstField(parts[1])
		if !ok {
			return io, fmt.Errorf("ciscolog: bad revise line %q", body)
		}
		if nh != "self" {
			if io.NextHop, err = netip.ParseAddr(nh); err != nil {
				return io, err
			}
		}
	case strings.HasPrefix(body, "Revise route removing "):
		io.Type = capture.RIBRemove
		body = strings.TrimPrefix(body, "Revise route removing ")
		pfx, ok := refFirstField(body)
		if !ok {
			return io, fmt.Errorf("ciscolog: bad revise line %q", body)
		}
		if io.Prefix, err = netip.ParsePrefix(pfx); err != nil {
			return io, err
		}
	default:
		fields := strings.Fields(body)
		if len(fields) < 5 {
			return io, fmt.Errorf("ciscolog: short proto line %q", body)
		}
		if io.PeerAddr, err = netip.ParseAddr(fields[0]); err != nil {
			return io, err
		}
		io.Peer = p.Resolve(io.PeerAddr)
		dir, kind := fields[1], fields[2]
		pfx := strings.TrimSuffix(fields[4], ",")
		if io.Prefix, err = netip.ParsePrefix(pfx); err != nil {
			return io, err
		}
		switch {
		case dir == "rcvd" && kind == "UPDATE":
			io.Type = capture.RecvAdvert
		case dir == "rcvd" && kind == "WITHDRAW":
			io.Type = capture.RecvWithdraw
		case dir == "send" && kind == "UPDATE":
			io.Type = capture.SendAdvert
		case dir == "send" && kind == "WITHDRAW":
			io.Type = capture.SendWithdraw
		default:
			return io, fmt.Errorf("ciscolog: unknown direction %q %q", dir, kind)
		}
		if io.Type == capture.RecvAdvert || io.Type == capture.SendAdvert {
			refParseUpdateTail(&io, body)
		}
	}
	return io, nil
}

func tagProto(tag string) route.Protocol {
	switch tag {
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

// refFirstField returns the first whitespace-separated field of s,
// reporting false when s is empty or all whitespace. Log lines truncated
// mid-field (a real hazard with UDP syslog) must parse as errors, not
// panic.
func refFirstField(s string) (string, bool) {
	f := strings.Fields(s)
	if len(f) == 0 {
		return "", false
	}
	return f[0], true
}

func refParseUpdateTail(io *capture.IO, body string) {
	if i := strings.Index(body, "next hop "); i >= 0 {
		if f, ok := refFirstField(body[i+len("next hop "):]); ok {
			nh := strings.TrimSuffix(f, ",")
			if nh != "self" {
				if a, err := netip.ParseAddr(nh); err == nil {
					io.NextHop = a
				}
			}
		}
	}
	if i := strings.Index(body, "localpref "); i >= 0 {
		if f, ok := refFirstField(body[i+len("localpref "):]); ok {
			lp := strings.TrimSuffix(f, ",")
			if v, err := strconv.ParseUint(lp, 10, 32); err == nil {
				io.Attrs.LocalPref = uint32(v)
			}
		}
	}
	if i := strings.Index(body, "path "); i >= 0 {
		for _, f := range strings.Fields(body[i+len("path "):]) {
			if v, err := strconv.ParseUint(f, 10, 32); err == nil {
				io.Attrs.ASPath = append(io.Attrs.ASPath, uint32(v))
			}
		}
	}
}

// ParseLog parses a whole per-router log stream line-at-a-time, exactly
// as the original did.
func (p *ReferenceParser) ParseLog(router string, r io.Reader) ([]capture.IO, error) {
	var out []capture.IO
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		io, err := p.ParseLine(router, line)
		if err != nil {
			return out, err
		}
		out = append(out, io)
	}
	return out, sc.Err()
}

// emitCorpus builds I/Os covering every emit branch: all types, OSPF and
// non-OSPF adverts, self/explicit next hops, empty and populated AS
// paths, invalid prefixes and addresses, and out-of-range type/protocol
// values.
func emitCorpus() []capture.IO {
	pfx := netip.MustParsePrefix("203.0.113.0/24")
	nh := netip.MustParseAddr("10.0.0.2")
	peer := netip.MustParseAddr("10.0.1.2")
	at := func(ms int) netsim.VirtualTime { return netsim.VirtualTime(ms) * 1_000_000 }
	return []capture.IO{
		{Type: capture.ConfigChange, Detail: "set lp 150", Time: at(4)},
		{Type: capture.ConfigChange, Detail: "", Time: at(4)},
		{Type: capture.SoftReconfig, Proto: route.ProtoBGP, Time: at(120)},
		{Type: capture.LinkUp, Detail: "eth-r2", Time: at(1000)},
		{Type: capture.LinkDown, Detail: "eth-r2", Time: at(1000)},
		{Type: capture.SessionDown, Proto: route.ProtoBGP, PeerAddr: peer, Time: at(1000)},
		{Type: capture.RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx, PeerAddr: peer, NextHop: nh,
			Attrs: route.BGPAttrs{LocalPref: 100, ASPath: []uint32{100, 200}}, Time: at(133500)},
		{Type: capture.RecvAdvert, Proto: route.ProtoOSPF, Detail: "LSU router-lsa 10.255.1.1 seq 3", PeerAddr: peer, Time: at(180001)},
		{Type: capture.RecvAdvert, Proto: route.ProtoEIGRP, Prefix: pfx, PeerAddr: peer, Time: at(210750)},
		{Type: capture.RecvWithdraw, Proto: route.ProtoBGP, Prefix: pfx, PeerAddr: peer, Time: at(134000)},
		{Type: capture.SendAdvert, Proto: route.ProtoBGP, Prefix: pfx, PeerAddr: peer, Time: at(133500)},
		{Type: capture.SendAdvert, Proto: route.ProtoOSPF, Detail: "LSU router-lsa 10.255.0.1 seq 4", PeerAddr: peer, Time: at(180001)},
		{Type: capture.SendWithdraw, Proto: route.ProtoRIP, Prefix: pfx, PeerAddr: peer, Time: at(134000)},
		{Type: capture.RIBInstall, Proto: route.ProtoBGP, Prefix: pfx, NextHop: nh, Time: at(135250)},
		{Type: capture.RIBInstall, Proto: route.ProtoRIP, Prefix: pfx, Time: at(135250)}, // self next hop
		{Type: capture.RIBRemove, Proto: route.ProtoBGP, Prefix: pfx, Time: at(136000)},
		{Type: capture.FIBInstall, Proto: route.ProtoBGP, Prefix: pfx, NextHop: nh, Time: at(137125)},
		{Type: capture.FIBInstall, Proto: route.ProtoConnected, Prefix: netip.MustParsePrefix("10.255.0.1/32"), Time: at(137125)},
		{Type: capture.FIBRemove, Proto: route.ProtoBGP, Prefix: pfx, Time: at(138000)},
		// Degenerate values: zero prefix/addr and out-of-range enums must
		// render identically too ("invalid Prefix", "invalid IP", proto(9)).
		{Type: capture.RecvAdvert, Proto: route.ProtoBGP, Time: at(1)},
		{Type: capture.FIBInstall, Proto: route.Protocol(9), Time: at(1)},
		{Type: capture.Type(99), Time: at(1)},
		// Day >= 10 exercises the other %2d branch of the timestamp.
		{Type: capture.SoftReconfig, Proto: route.ProtoBGP, Time: netsim.VirtualTime(10 * 24 * 3600 * 1_000_000_000)},
	}
}

// TestEmitMatchesReference asserts the append-based emitter reproduces
// the fmt-based reference byte-for-byte on every emit branch.
func TestEmitMatchesReference(t *testing.T) {
	for _, io := range emitCorpus() {
		if got, want := string(AppendLine(nil, io)), ReferenceEmit(io); got != want {
			t.Errorf("AppendLine mismatch for %v:\n  fast: %q\n  ref:  %q", io.Type, got, want)
		}
	}
}

// TestParseMatchesReference asserts the byte-scanning parser agrees with
// the string-based reference on every canonical line: same acceptance,
// same parsed I/O, same assigned IDs.
func TestParseMatchesReference(t *testing.T) {
	var lines []string
	for _, io := range emitCorpus() {
		lines = append(lines, string(AppendLine(nil, io)))
	}
	lines = append(lines,
		"  *Nov  1 10:00:25.004: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started  ",
		"*Nov  1 10:02:13.500: BGP(0): 10.0.0.2 rcvd UPDATE about 203.0.113.0/24, next hop self, localpref 100, path 100 200",
		"*nov 12 9:02:13,500: BGP(0): 10.0.0.2 rcvd WITHDRAW about 203.0.113.0/24",
		"*Feb 29 10:00:00.000: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started",
		// Rejections must agree on canonical-whitespace input as well.
		"*Nov  1 10:02:15.250: BGP(0): Revise route installing 203.0.113.0/24 -> ",
		"*Nov  1 10:02:16.000: BGP(0): Revise route removing ",
		"*Nov 31 10:00:00.000: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started",
		"*Nov  1 24:00:00.000: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started",
		"*Nov  1 10:00:00.0000: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started",
		"*Nov  1 10:00: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started",
		"*Nov  1 10:02:13.500: XXX: 10.0.0.2 rcvd UPDATE about 203.0.113.0/24",
		"*Nov  1 10:02:13.500: BGP(0): 10.0.0.2 pushd UPDATE about 203.0.113.0/24",
		"*Nov  1 10:02:13.500: BGP(0): 10.0.0.2 rcvd",
		"*Nov  1 10:02:17.125: %FIB-6-INSTALL: 203.0.113.0/24 via",
		"not a log line",
		"",
	)
	resolve := func(a netip.Addr) string { return "peer-" + a.String() }
	fast := NewParser(resolve)
	ref := NewReferenceParser(resolve)
	for _, line := range lines {
		fio, ferr := fast.parse("r1", []byte(line))
		rio, rerr := ref.ParseLine("r1", line)
		if (ferr == nil) != (rerr == nil) {
			t.Errorf("acceptance mismatch for %q: fast err %v, ref err %v", line, ferr, rerr)
			continue
		}
		if ferr != nil {
			continue
		}
		if !reflect.DeepEqual(fio, rio) {
			t.Errorf("parse mismatch for %q:\n  fast: %+v\n  ref:  %+v", line, fio, rio)
		}
	}
}

// TestAppendLineZeroAlloc asserts the emit hot path allocates nothing
// once the destination buffer has warmed up.
func TestAppendLineZeroAlloc(t *testing.T) {
	corpus := emitCorpus()
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		for i := range corpus {
			buf = AppendLine(buf[:0], corpus[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendLine allocated %.1f times per corpus pass, want 0", allocs)
	}
}

// TestParserInterning asserts repeated values are shared between lines:
// the second parse of an identical AS path must reuse the same backing
// slice, and repeated details the same string.
func TestParserInterning(t *testing.T) {
	p := NewParser(nil)
	line := "*Nov  1 10:02:13.500: BGP(0): 10.0.0.2 rcvd UPDATE about 203.0.113.0/24, next hop 10.0.0.2, localpref 100, path 100 200"
	a, err := p.parse("r1", []byte(line))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.parse("r1", []byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Attrs.ASPath) != 2 || len(b.Attrs.ASPath) != 2 {
		t.Fatalf("bad AS paths: %v %v", a.Attrs.ASPath, b.Attrs.ASPath)
	}
	if &a.Attrs.ASPath[0] != &b.Attrs.ASPath[0] {
		t.Error("AS path not interned across identical lines")
	}
}

// TestParseReader exercises the streaming path: callback order, metrics,
// and early stop on callback error.
func TestParseReader(t *testing.T) {
	// Keep only corpus entries whose emission parses back; the degenerate
	// ones (invalid prefix, unknown type) emit intentionally unparseable
	// lines.
	var corpus []capture.IO
	for _, io := range emitCorpus() {
		if _, err := NewParser(nil).parse("r1", AppendLine(nil, io)); err == nil {
			corpus = append(corpus, io)
		}
	}
	var sb strings.Builder
	if err := EmitLog(&sb, corpus); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	p := NewParser(nil)
	p.Metrics = reg
	var got []capture.IO
	if err := p.ParseReader("r1", strings.NewReader(sb.String()), func(io capture.IO) error {
		got = append(got, io)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(corpus) {
		t.Fatalf("streamed %d I/Os, want %d", len(got), len(corpus))
	}
	batch, err := NewParser(nil).ParseLog("r1", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatal("ParseReader and ParseLog disagree")
	}
	if n := reg.Counter("ciscolog.parse.lines").Value(); n != int64(len(corpus)) {
		t.Fatalf("ciscolog.parse.lines = %d, want %d", n, len(corpus))
	}
	if n := reg.Counter("ciscolog.parse.errors").Value(); n != 0 {
		t.Fatalf("ciscolog.parse.errors = %d, want 0", n)
	}
	if reg.Histogram("ciscolog.parse").Count() == 0 {
		t.Fatal("ciscolog.parse timer never observed")
	}

	// Callback errors stop the stream and count as a parse error.
	stop := strings.NewReader(sb.String())
	seen := 0
	err = p.ParseReader("r1", stop, func(capture.IO) error {
		seen++
		if seen == 3 {
			return errStop
		}
		return nil
	})
	if err != errStop || seen != 3 {
		t.Fatalf("callback stop: err %v after %d I/Os", err, seen)
	}
	if n := reg.Counter("ciscolog.parse.errors").Value(); n != 1 {
		t.Fatalf("ciscolog.parse.errors = %d, want 1", n)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }
