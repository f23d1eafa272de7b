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
	"net/netip"
	"sort"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/localck"
	"hbverify/internal/route"
	"hbverify/internal/wire"
)

// frameV1 is the binary format version byte.
const frameV1 = 0x01

// Binary message types (the byte after the version byte).
const (
	// 1 is unassigned: walks only travel in batches.
	mtWalkBatch   byte = 2 // body: batchID, count, WalkMsg...
	mtResultBatch byte = 3 // body: batchID, count, WalkMsg...
	mtViewDelta   byte = 4 // body: viewDelta (FIB installs/removes + ifaces)
	// 5 and 6 are unassigned (retired provenance-trace frames); a server
	// drops them like any type it does not know.
	// Local-check mode (fleet <-> node):
	mtLocalViolation byte = 7 // body: LocalReport (per-sync local check result)
	mtLabels         byte = 8 // body: per-node distance-label slice
)

// maxFrame bounds a single frame; larger reads are rejected as corrupt.
const maxFrame = 16 << 20

// ---------------------------------------------------------------------------
// Append-style encoders.
// ---------------------------------------------------------------------------

func appendWalk(b []byte, w *WalkMsg) []byte {
	b = binary.AppendUvarint(b, uint64(w.WalkID))
	b = wire.AppendString(b, w.Source)
	b = wire.AppendAddr(b, w.Dst)
	b = binary.AppendUvarint(b, uint64(w.Hops))
	b = binary.AppendUvarint(b, uint64(w.Msgs))
	b = wire.AppendString(b, w.Err)
	// Symbolic set-walk state: the frontier and the expansions collected.
	b = binary.AppendUvarint(b, uint64(len(w.Frontier)))
	for _, f := range w.Frontier {
		b = wire.AppendString(b, f.Router)
		b = binary.AppendUvarint(b, uint64(f.Depth))
	}
	b = binary.AppendUvarint(b, uint64(len(w.Exps)))
	for _, e := range w.Exps {
		b = wire.AppendString(b, e.Router)
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
		b = wire.AppendStrings(b, e.Nexts)
	}
	return b
}

// appendWalkBatch encodes a full walk-batch (or result-batch) frame body.
func appendWalkBatch(b []byte, mt byte, batchID int, walks []WalkMsg) []byte {
	b = append(b, frameV1, mt)
	b = binary.AppendUvarint(b, uint64(batchID))
	b = binary.AppendUvarint(b, uint64(len(walks)))
	for i := range walks {
		b = appendWalk(b, &walks[i])
	}
	return b
}

func appendEntry(b []byte, e fib.Entry) []byte {
	b = wire.AppendPrefix(b, e.Prefix)
	b = wire.AppendAddr(b, e.NextHop)
	b = append(b, byte(e.Proto))
	// ECMP next-hop set; 0 marks a single-path entry.
	return wire.AppendAddrs(b, e.NextHops)
}

func appendIface(b []byte, i dataplane.Iface) []byte {
	b = wire.AppendString(b, i.Name)
	b = wire.AppendAddr(b, i.Addr)
	b = wire.AppendPrefix(b, i.Prefix)
	b = wire.AppendAddr(b, i.PeerAddr)
	b = wire.AppendString(b, i.PeerName)
	b = wire.AppendBool(b, i.Up)
	return wire.AppendBool(b, i.Stub)
}

// viewDelta updates a node's view in place: FIB installs and removals
// (entry-level deltas), and optionally a full interface-state replacement
// (link flips change forwarding without touching the FIB).
type viewDelta struct {
	Router   string
	Installs []fib.Entry
	Removes  []netip.Prefix
	Ifaces   []dataplane.Iface // nil = leave interface state alone
	HasIface bool
	// Sync correlates the node's answer: after applying the delta it runs
	// its local invariant checks and sends an mtLocalViolation report with
	// this ID — the acknowledgement a sync waits for (empty violations
	// = certificate). A frame with Sync 0 is applied and not answered.
	Sync int
}

func appendViewDelta(b []byte, d *viewDelta) []byte {
	b = append(b, frameV1, mtViewDelta)
	b = wire.AppendString(b, d.Router)
	b = binary.AppendUvarint(b, uint64(len(d.Installs)))
	for _, e := range d.Installs {
		b = appendEntry(b, e)
	}
	b = binary.AppendUvarint(b, uint64(len(d.Removes)))
	for _, p := range d.Removes {
		b = wire.AppendPrefix(b, p)
	}
	b = wire.AppendBool(b, d.HasIface)
	if d.HasIface {
		b = binary.AppendUvarint(b, uint64(len(d.Ifaces)))
		for _, i := range d.Ifaces {
			b = appendIface(b, i)
		}
	}
	return binary.AppendUvarint(b, uint64(d.Sync))
}

// appendLabels encodes a per-node label slice: the node's own label per
// class plus each adjacent peer's labels in the same class order.
// Unreachable labels ride as varint -1.
func appendLabels(b []byte, router string, nl localck.NodeLabels) []byte {
	b = append(b, frameV1, mtLabels)
	b = wire.AppendString(b, router)
	b = binary.AppendUvarint(b, nl.Epoch)
	classes := nl.Classes()
	b = binary.AppendUvarint(b, uint64(len(classes)))
	for _, c := range classes {
		b = wire.AppendPrefix(b, c)
		b = binary.AppendVarint(b, int64(nl.OwnLabel(c)))
	}
	peers := make([]string, 0, len(nl.Peers))
	for p := range nl.Peers {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	b = binary.AppendUvarint(b, uint64(len(peers)))
	for _, p := range peers {
		b = wire.AppendString(b, p)
		for _, c := range classes {
			b = binary.AppendVarint(b, int64(nl.PeerLabel(p, c)))
		}
	}
	return b
}

// appendLocalReport encodes a node's per-sync local check result: the
// compact escalation frame carrying router, checked-class count, and
// each violation's prefix, invariant, and suspect hop set.
func appendLocalReport(b []byte, rep *LocalReport) []byte {
	b = append(b, frameV1, mtLocalViolation)
	b = binary.AppendUvarint(b, uint64(rep.Sync))
	b = wire.AppendString(b, rep.Router)
	b = binary.AppendUvarint(b, rep.Epoch)
	b = binary.AppendUvarint(b, uint64(rep.Checked))
	b = binary.AppendUvarint(b, uint64(len(rep.Violations)))
	for _, v := range rep.Violations {
		b = wire.AppendPrefix(b, v.Prefix)
		b = append(b, byte(v.Invariant))
		b = wire.AppendString(b, v.Detail)
		b = wire.AppendAddrs(b, v.SuspectHops)
	}
	return b
}

// ---------------------------------------------------------------------------
// Frame decoders, over the shared bounded reader: the caller checks r.Err()
// once after the frame. A count's second argument is the fewest bytes one
// element encodes to; the three largest elements name theirs.
// ---------------------------------------------------------------------------

const (
	minWalkBytes  = 8
	minEntryBytes = 4
	minIfaceBytes = 7
)

func readWalk(r *wire.Reader) WalkMsg {
	var w WalkMsg
	w.WalkID = int(r.Uvarint())
	w.Source = r.Str()
	w.Dst = r.Addr()
	w.Hops = int(r.Uvarint())
	w.Msgs = int(r.Uvarint())
	w.Err = r.Str()
	if n := r.Count("frontier", 2); n > 0 {
		w.Frontier = make([]FrontierHop, 0, n)
		for i := 0; i < n; i++ {
			w.Frontier = append(w.Frontier, FrontierHop{Router: r.Str(), Depth: int(r.Uvarint())})
		}
	}
	if n := r.Count("exps", 3); n > 0 {
		w.Exps = make([]ExpMsg, 0, n)
		for i := 0; i < n; i++ {
			e := ExpMsg{Router: r.Str()}
			flags := r.Byte()
			e.Delivered = flags&1 != 0
			e.Dropped = flags&2 != 0
			e.Stuck = flags&4 != 0
			e.Nexts = r.Strs()
			w.Exps = append(w.Exps, e)
		}
	}
	return w
}

func readWalkBatch(r *wire.Reader) (int, []WalkMsg) {
	batchID := int(r.Uvarint())
	n := r.Count("walk batch", minWalkBytes)
	walks := make([]WalkMsg, 0, n)
	for i := 0; i < n; i++ {
		walks = append(walks, readWalk(r))
	}
	return batchID, walks
}

func readEntry(r *wire.Reader) fib.Entry {
	var e fib.Entry
	e.Prefix = r.Prefix()
	e.NextHop = r.Addr()
	e.Proto = route.Protocol(r.Byte())
	e.NextHops = r.Addrs()
	return e
}

func readIface(r *wire.Reader) dataplane.Iface {
	var i dataplane.Iface
	i.Name = r.Str()
	i.Addr = r.Addr()
	i.Prefix = r.Prefix()
	i.PeerAddr = r.Addr()
	i.PeerName = r.Str()
	i.Up = r.Bool()
	i.Stub = r.Bool()
	return i
}

func readViewDelta(r *wire.Reader) viewDelta {
	var d viewDelta
	d.Router = r.Str()
	n := r.Count("fib installs", minEntryBytes)
	for i := 0; i < n; i++ {
		d.Installs = append(d.Installs, readEntry(r))
	}
	n = r.Count("fib removes", 1)
	for i := 0; i < n; i++ {
		d.Removes = append(d.Removes, r.Prefix())
	}
	d.HasIface = r.Bool()
	if d.HasIface {
		n = r.Count("ifaces", minIfaceBytes)
		d.Ifaces = make([]dataplane.Iface, 0, n)
		for i := 0; i < n; i++ {
			d.Ifaces = append(d.Ifaces, readIface(r))
		}
	}
	d.Sync = int(r.Uvarint())
	return d
}

func readLabels(r *wire.Reader) (string, localck.NodeLabels) {
	router := r.Str()
	nl := localck.NodeLabels{Epoch: r.Uvarint(), Own: map[netip.Prefix]int{}, Peers: map[string]map[netip.Prefix]int{}}
	nc := r.Count("label classes", 2)
	classes := make([]netip.Prefix, 0, nc)
	for i := 0; i < nc; i++ {
		c := r.Prefix()
		classes = append(classes, c)
		if d := int(r.Varint()); d != localck.Unreachable && r.Err() == nil {
			nl.Own[c] = d
		}
	}
	np := r.Count("label peers", 1+nc) // a name, then one label per class
	for i := 0; i < np; i++ {
		p := r.Str()
		m := map[netip.Prefix]int{}
		for _, c := range classes {
			if d := int(r.Varint()); d != localck.Unreachable && r.Err() == nil {
				m[c] = d
			}
		}
		if r.Err() == nil {
			nl.Peers[p] = m
		}
	}
	return router, nl
}

func readLocalReport(r *wire.Reader) LocalReport {
	var rep LocalReport
	rep.Sync = int(r.Uvarint())
	rep.Router = r.Str()
	rep.Epoch = r.Uvarint()
	rep.Checked = int(r.Uvarint())
	n := r.Count("violations", 4)
	for i := 0; i < n; i++ {
		v := localck.Violation{Router: rep.Router}
		v.Prefix = r.Prefix()
		v.Invariant = localck.Invariant(r.Byte())
		v.Detail = r.Str()
		v.SuspectHops = r.Addrs()
		rep.Violations = append(rep.Violations, v)
	}
	return rep
}
