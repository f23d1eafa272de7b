// The wire codec. Every dist frame is length-prefixed:
//
//	[4-byte big-endian payload length][payload]
//
// and the payload is a compact binary message — [frameV1][msgType][body]
// with varint integers, length-prefixed strings, and raw address bytes.
// Receivers drop any payload that does not start with frameV1. Encoders are
// append-style over caller-owned buffers: the connection pool hands each
// send the connection's reusable scratch slice, so steady-state encoding
// allocates nothing.

package dist

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"

	"hbverify/internal/capture"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/localck"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// frameV1 is the binary format version byte.
const frameV1 = 0x01

// Binary message types (the byte after the version byte).
const (
	// 1 is unassigned: walks only travel in batches.
	mtWalkBatch   byte = 2 // body: batchID, count, WalkMsg...
	mtResultBatch byte = 3 // body: batchID, count, WalkMsg...
	mtViewDelta   byte = 4 // body: viewDelta (FIB installs/removes + ifaces)
	mtProv        byte = 5 // body: ProvQuery
	mtProvResult  byte = 6 // body: ProvQuery
	// Local-check mode (coordinator <-> node):
	mtLocalViolation byte = 7 // body: LocalReport (per-sync local check result)
	mtLabels         byte = 8 // body: per-node distance-label slice
)

// maxFrame bounds a single frame; larger reads are rejected as corrupt.
const maxFrame = 16 << 20

// ---------------------------------------------------------------------------
// Append-style encoders.
// ---------------------------------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendAddr writes a netip.Addr as [len byte][bytes]; len 0 marks the
// invalid (unset) address.
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, 0)
	}
	s := a.AsSlice()
	b = append(b, byte(len(s)))
	return append(b, s...)
}

// appendPrefix writes addr + bits; the invalid prefix is addr-len 0 with no
// bits byte.
func appendPrefix(b []byte, p netip.Prefix) []byte {
	if !p.IsValid() {
		return append(b, 0)
	}
	b = appendAddr(b, p.Addr())
	return append(b, byte(p.Bits()))
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendWalk(b []byte, w *WalkMsg) []byte {
	b = appendUvarint(b, uint64(w.WalkID))
	b = appendString(b, w.Source)
	b = appendAddr(b, w.Dst)
	b = appendStrings(b, w.Path)
	b = appendUvarint(b, uint64(w.Hops))
	b = appendUvarint(b, uint64(w.Msgs))
	b = append(b, byte(w.Outcome))
	b = appendBool(b, w.Done)
	b = appendString(b, w.Egress)
	b = appendString(b, w.Err)
	// Symbolic set-walk state (frontier, expansions, DAG result).
	b = appendUvarint(b, uint64(len(w.Frontier)))
	for _, f := range w.Frontier {
		b = appendString(b, f.Router)
		b = appendUvarint(b, uint64(f.Depth))
	}
	b = appendUvarint(b, uint64(len(w.Exps)))
	for _, e := range w.Exps {
		b = appendString(b, e.Router)
		var flags byte
		if e.Delivered {
			flags |= 1
		}
		if e.Dropped {
			flags |= 2
		}
		if e.Stuck {
			flags |= 4
		}
		b = append(b, flags)
		b = appendStrings(b, e.Nexts)
	}
	b = appendStrings(b, w.Egresses)
	b = appendUvarint(b, uint64(len(w.Edges)))
	for _, e := range w.Edges {
		b = appendString(b, e[0])
		b = appendString(b, e[1])
	}
	return appendUvarint(b, uint64(w.Branches))
}

// appendWalkBatch encodes a full walk-batch (or result-batch) frame body.
func appendWalkBatch(b []byte, mt byte, batchID int, walks []WalkMsg) []byte {
	b = append(b, frameV1, mt)
	b = appendUvarint(b, uint64(batchID))
	b = appendUvarint(b, uint64(len(walks)))
	for i := range walks {
		b = appendWalk(b, &walks[i])
	}
	return b
}

func appendEntry(b []byte, e fib.Entry) []byte {
	b = appendPrefix(b, e.Prefix)
	b = appendAddr(b, e.NextHop)
	b = appendString(b, e.OutIface)
	b = append(b, byte(e.Proto), e.AD)
	b = appendUvarint(b, uint64(e.Metric))
	// ECMP next-hop set; 0 marks a single-path entry.
	b = appendUvarint(b, uint64(len(e.NextHops)))
	for _, h := range e.NextHops {
		b = appendAddr(b, h)
	}
	return b
}

func appendIface(b []byte, i dataplane.Iface) []byte {
	b = appendString(b, i.Name)
	b = appendAddr(b, i.Addr)
	b = appendPrefix(b, i.Prefix)
	b = appendAddr(b, i.PeerAddr)
	b = appendString(b, i.PeerName)
	b = appendBool(b, i.Up)
	return appendBool(b, i.Stub)
}

// viewDelta updates a node's LocalView in place: FIB installs and removals
// (entry-level deltas), and optionally a full interface-state replacement
// (link flips change forwarding without touching the FIB).
type viewDelta struct {
	Router   string
	Full     bool // replace the whole FIB with Installs
	Installs []fib.Entry
	Removes  []netip.Prefix
	Ifaces   []dataplane.Iface // nil = leave interface state alone
	HasIface bool
	// Sync correlates the node's answer: after applying the delta it runs
	// its local invariant checks and sends an mtLocalViolation report with
	// this ID — the acknowledgement SyncViews waits for (empty violations
	// = certificate). A frame with Sync 0 is applied and not answered.
	Sync int
}

func appendViewDelta(b []byte, d *viewDelta) []byte {
	b = append(b, frameV1, mtViewDelta)
	b = appendString(b, d.Router)
	b = appendBool(b, d.Full)
	b = appendUvarint(b, uint64(len(d.Installs)))
	for _, e := range d.Installs {
		b = appendEntry(b, e)
	}
	b = appendUvarint(b, uint64(len(d.Removes)))
	for _, p := range d.Removes {
		b = appendPrefix(b, p)
	}
	b = appendBool(b, d.HasIface)
	if d.HasIface {
		b = appendUvarint(b, uint64(len(d.Ifaces)))
		for _, i := range d.Ifaces {
			b = appendIface(b, i)
		}
	}
	return appendUvarint(b, uint64(d.Sync))
}

// appendLabels encodes a per-node label slice: the node's own label per
// class plus each adjacent peer's labels in the same class order.
// Unreachable labels ride as varint -1.
func appendLabels(b []byte, router string, nl localck.NodeLabels) []byte {
	b = append(b, frameV1, mtLabels)
	b = appendString(b, router)
	b = appendUvarint(b, nl.Epoch)
	classes := nl.Classes()
	b = appendUvarint(b, uint64(len(classes)))
	for _, c := range classes {
		b = appendPrefix(b, c)
		b = appendVarint(b, int64(nl.OwnLabel(c)))
	}
	peers := make([]string, 0, len(nl.Peers))
	for p := range nl.Peers {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	b = appendUvarint(b, uint64(len(peers)))
	for _, p := range peers {
		b = appendString(b, p)
		for _, c := range classes {
			b = appendVarint(b, int64(nl.PeerLabel(p, c)))
		}
	}
	return b
}

// appendLocalReport encodes a node's per-sync local check result: the
// compact escalation frame carrying router, checked-class count, and
// each violation's prefix, invariant, and suspect hop set.
func appendLocalReport(b []byte, rep *LocalReport) []byte {
	b = append(b, frameV1, mtLocalViolation)
	b = appendUvarint(b, uint64(rep.Sync))
	b = appendString(b, rep.Router)
	b = appendUvarint(b, rep.Epoch)
	b = appendUvarint(b, uint64(rep.Checked))
	b = appendUvarint(b, uint64(len(rep.Violations)))
	for _, v := range rep.Violations {
		b = appendPrefix(b, v.Prefix)
		b = append(b, byte(v.Invariant))
		b = appendString(b, v.Detail)
		b = appendUvarint(b, uint64(len(v.SuspectHops)))
		for _, h := range v.SuspectHops {
			b = appendAddr(b, h)
		}
	}
	return b
}

func appendAttrs(b []byte, a route.BGPAttrs) []byte {
	b = appendUvarint(b, uint64(a.LocalPref))
	b = appendUvarint(b, uint64(len(a.ASPath)))
	for _, as := range a.ASPath {
		b = appendUvarint(b, uint64(as))
	}
	b = appendUvarint(b, uint64(a.MED))
	b = append(b, byte(a.Origin))
	b = appendUvarint(b, uint64(len(a.Communities)))
	for _, c := range a.Communities {
		b = appendUvarint(b, uint64(c))
	}
	b = appendAddr(b, a.OriginatorID)
	b = appendUvarint(b, uint64(len(a.ClusterList)))
	for _, c := range a.ClusterList {
		b = appendAddr(b, c)
	}
	return b
}

func appendIO(b []byte, io capture.IO) []byte {
	b = appendUvarint(b, io.ID)
	b = appendString(b, io.Router)
	b = append(b, byte(io.Type), byte(io.Proto))
	b = appendPrefix(b, io.Prefix)
	b = appendAddr(b, io.NextHop)
	b = appendString(b, io.Peer)
	b = appendAddr(b, io.PeerAddr)
	b = appendAttrs(b, io.Attrs)
	b = appendString(b, io.Detail)
	b = appendVarint(b, int64(io.Time))
	b = appendVarint(b, int64(io.TrueTime))
	b = appendUvarint(b, uint64(len(io.Causes)))
	for _, c := range io.Causes {
		b = appendUvarint(b, c)
	}
	return b
}

func appendProv(b []byte, mt byte, q *ProvQuery) []byte {
	b = append(b, frameV1, mt)
	b = appendUvarint(b, uint64(q.QueryID))
	b = appendUvarint(b, q.Cursor)
	b = appendUvarint(b, uint64(q.Hops))
	b = appendBool(b, q.Done)
	b = appendString(b, q.Err)
	b = appendUvarint(b, uint64(len(q.Path)))
	for _, io := range q.Path {
		b = appendIO(b, io)
	}
	return b
}

// ---------------------------------------------------------------------------
// Decoder.
// ---------------------------------------------------------------------------

// wireReader consumes a binary payload; the first error sticks and every
// subsequent read returns zero values, so decode paths check err once.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("dist: truncated %s at offset %d", what, r.off)
	}
}

func (r *wireReader) uvarint() uint64 {
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

func (r *wireReader) varint() int64 {
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

func (r *wireReader) byte() byte {
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

func (r *wireReader) bool() bool { return r.byte() != 0 }

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("bytes")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *wireReader) string() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string")
		return ""
	}
	return string(r.take(int(n)))
}

// count reads a collection length and bounds it by the remaining payload so
// a corrupt frame cannot trigger a huge allocation.
func (r *wireReader) count(what string) int {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

func (r *wireReader) addr() netip.Addr {
	n := int(r.byte())
	if n == 0 {
		return netip.Addr{}
	}
	a, ok := netip.AddrFromSlice(r.take(n))
	if !ok {
		r.fail("addr")
	}
	return a
}

func (r *wireReader) prefix() netip.Prefix {
	a := r.addr()
	if !a.IsValid() {
		return netip.Prefix{}
	}
	bits := int(r.byte())
	p, err := a.Prefix(bits)
	if err != nil {
		r.fail("prefix")
		return netip.Prefix{}
	}
	return p
}

func (r *wireReader) strings() []string {
	n := r.count("strings")
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

func (r *wireReader) walk() WalkMsg {
	var w WalkMsg
	w.WalkID = int(r.uvarint())
	w.Source = r.string()
	w.Dst = r.addr()
	w.Path = r.strings()
	w.Hops = int(r.uvarint())
	w.Msgs = int(r.uvarint())
	w.Outcome = dataplane.Outcome(r.byte())
	w.Done = r.bool()
	w.Egress = r.string()
	w.Err = r.string()
	if n := r.count("frontier"); n > 0 {
		w.Frontier = make([]FrontierHop, 0, n)
		for i := 0; i < n; i++ {
			w.Frontier = append(w.Frontier, FrontierHop{Router: r.string(), Depth: int(r.uvarint())})
		}
	}
	if n := r.count("exps"); n > 0 {
		w.Exps = make([]ExpMsg, 0, n)
		for i := 0; i < n; i++ {
			e := ExpMsg{Router: r.string()}
			flags := r.byte()
			e.Delivered = flags&1 != 0
			e.Dropped = flags&2 != 0
			e.Stuck = flags&4 != 0
			e.Nexts = r.strings()
			w.Exps = append(w.Exps, e)
		}
	}
	w.Egresses = r.strings()
	if n := r.count("edges"); n > 0 {
		w.Edges = make([][2]string, 0, n)
		for i := 0; i < n; i++ {
			w.Edges = append(w.Edges, [2]string{r.string(), r.string()})
		}
	}
	w.Branches = int(r.uvarint())
	return w
}

func (r *wireReader) walkBatch() (int, []WalkMsg) {
	batchID := int(r.uvarint())
	n := r.count("walk batch")
	walks := make([]WalkMsg, 0, n)
	for i := 0; i < n; i++ {
		walks = append(walks, r.walk())
	}
	return batchID, walks
}

func (r *wireReader) entry() fib.Entry {
	var e fib.Entry
	e.Prefix = r.prefix()
	e.NextHop = r.addr()
	e.OutIface = r.string()
	e.Proto = route.Protocol(r.byte())
	e.AD = r.byte()
	e.Metric = uint32(r.uvarint())
	if n := r.count("nexthops"); n > 0 {
		e.NextHops = make([]netip.Addr, 0, n)
		for i := 0; i < n; i++ {
			e.NextHops = append(e.NextHops, r.addr())
		}
	}
	return e
}

func (r *wireReader) iface() dataplane.Iface {
	var i dataplane.Iface
	i.Name = r.string()
	i.Addr = r.addr()
	i.Prefix = r.prefix()
	i.PeerAddr = r.addr()
	i.PeerName = r.string()
	i.Up = r.bool()
	i.Stub = r.bool()
	return i
}

func (r *wireReader) viewDelta() viewDelta {
	var d viewDelta
	d.Router = r.string()
	d.Full = r.bool()
	n := r.count("fib installs")
	for i := 0; i < n; i++ {
		d.Installs = append(d.Installs, r.entry())
	}
	n = r.count("fib removes")
	for i := 0; i < n; i++ {
		d.Removes = append(d.Removes, r.prefix())
	}
	d.HasIface = r.bool()
	if d.HasIface {
		n = r.count("ifaces")
		d.Ifaces = make([]dataplane.Iface, 0, n)
		for i := 0; i < n; i++ {
			d.Ifaces = append(d.Ifaces, r.iface())
		}
	}
	d.Sync = int(r.uvarint())
	return d
}

func (r *wireReader) labels() (string, localck.NodeLabels) {
	router := r.string()
	nl := localck.NodeLabels{Epoch: r.uvarint(), Own: map[netip.Prefix]int{}, Peers: map[string]map[netip.Prefix]int{}}
	nc := r.count("label classes")
	classes := make([]netip.Prefix, 0, nc)
	for i := 0; i < nc; i++ {
		c := r.prefix()
		classes = append(classes, c)
		if d := int(r.varint()); d != localck.Unreachable && r.err == nil {
			nl.Own[c] = d
		}
	}
	np := r.count("label peers")
	for i := 0; i < np; i++ {
		p := r.string()
		m := map[netip.Prefix]int{}
		for _, c := range classes {
			if d := int(r.varint()); d != localck.Unreachable && r.err == nil {
				m[c] = d
			}
		}
		if r.err == nil {
			nl.Peers[p] = m
		}
	}
	return router, nl
}

func (r *wireReader) localReport() LocalReport {
	var rep LocalReport
	rep.Sync = int(r.uvarint())
	rep.Router = r.string()
	rep.Epoch = r.uvarint()
	rep.Checked = int(r.uvarint())
	n := r.count("violations")
	for i := 0; i < n; i++ {
		v := localck.Violation{Router: rep.Router}
		v.Prefix = r.prefix()
		v.Invariant = localck.Invariant(r.byte())
		v.Detail = r.string()
		nh := r.count("suspect hops")
		for j := 0; j < nh; j++ {
			v.SuspectHops = append(v.SuspectHops, r.addr())
		}
		rep.Violations = append(rep.Violations, v)
	}
	return rep
}

func (r *wireReader) attrs() route.BGPAttrs {
	var a route.BGPAttrs
	a.LocalPref = uint32(r.uvarint())
	if n := r.count("aspath"); n > 0 {
		a.ASPath = make([]uint32, n)
		for i := range a.ASPath {
			a.ASPath[i] = uint32(r.uvarint())
		}
	}
	a.MED = uint32(r.uvarint())
	a.Origin = route.Origin(r.byte())
	if n := r.count("communities"); n > 0 {
		a.Communities = make([]uint32, n)
		for i := range a.Communities {
			a.Communities[i] = uint32(r.uvarint())
		}
	}
	a.OriginatorID = r.addr()
	if n := r.count("clusterlist"); n > 0 {
		a.ClusterList = make([]netip.Addr, n)
		for i := range a.ClusterList {
			a.ClusterList[i] = r.addr()
		}
	}
	return a
}

func (r *wireReader) io() capture.IO {
	var io capture.IO
	io.ID = r.uvarint()
	io.Router = r.string()
	io.Type = capture.Type(r.byte())
	io.Proto = route.Protocol(r.byte())
	io.Prefix = r.prefix()
	io.NextHop = r.addr()
	io.Peer = r.string()
	io.PeerAddr = r.addr()
	io.Attrs = r.attrs()
	io.Detail = r.string()
	io.Time = netsim.VirtualTime(r.varint())
	io.TrueTime = netsim.VirtualTime(r.varint())
	if n := r.count("causes"); n > 0 {
		io.Causes = make([]uint64, n)
		for i := range io.Causes {
			io.Causes[i] = r.uvarint()
		}
	}
	return io
}

func (r *wireReader) prov() ProvQuery {
	var q ProvQuery
	q.QueryID = int(r.uvarint())
	q.Cursor = r.uvarint()
	q.Hops = int(r.uvarint())
	q.Done = r.bool()
	q.Err = r.string()
	n := r.count("prov path")
	for i := 0; i < n; i++ {
		q.Path = append(q.Path, r.io())
	}
	return q
}
