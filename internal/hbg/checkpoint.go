// Checkpoint encode/decode: the durable form of the always-on daemon's
// state (internal/stream). A checkpoint carries the inferred graph — with
// its pruned-ancestry root sets — the inference watermark, and the raw
// capture window still retained below it, so a crashed daemon can reload
// the file and resume inference with edge-identical results to an
// uninterrupted run.
//
// The encoding is deterministic: nodes, edges, inherited-root sets, and
// retained events are all serialized in sorted order, so encoding the same
// logical state always yields the same bytes (checkpoint files can be
// compared and content-addressed).

package hbg

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"
	"sort"

	"hbverify/internal/capture"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// checkpointMagic versions the format; bump on any layout change.
const checkpointMagic = "HBGCKPT1"

// Checkpoint is the serializable state of a windowed inference daemon.
type Checkpoint struct {
	// Graph is the inferred HBG covering all history through LastID
	// (pruned below the compaction floor, with inherited root sets).
	Graph *Graph
	// LastID is the generation watermark: inference has covered every
	// event with ID <= LastID.
	LastID uint64
	// FirstRetainedID is the compaction floor: events below it have been
	// evicted from the capture log (and pruned from Graph).
	FirstRetainedID uint64
	// Retained is the raw capture window at checkpoint time, dense IDs
	// starting at FirstRetainedID.
	Retained []capture.IO
}

// Encode writes the checkpoint deterministically.
func (c *Checkpoint) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 4096)
	buf = append(buf, checkpointMagic...)
	buf = binary.AppendUvarint(buf, c.LastID)
	buf = binary.AppendUvarint(buf, c.FirstRetainedID)

	g := c.Graph
	if g == nil {
		g = New()
	}
	g.mu.RLock()
	buf = binary.AppendUvarint(buf, g.prunedBelow)

	buf = binary.AppendUvarint(buf, uint64(g.nodes))
	for _, v := range g.verts {
		if !v.known {
			continue
		}
		buf = appendIO(buf, &v.io)
		if len(buf) > 1<<16 {
			if _, err := bw.Write(buf); err != nil {
				g.mu.RUnlock()
				return err
			}
			buf = buf[:0]
		}
	}

	// verts ascend by ID, so sorting each vertex's children yields the
	// edges in (From, To) order.
	buf = binary.AppendUvarint(buf, uint64(g.edges))
	for _, v := range g.verts {
		for _, to := range sortedIDs(v.out) {
			buf = binary.AppendUvarint(buf, v.io.ID)
			buf = binary.AppendUvarint(buf, to)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.confidenceLocked(Edge{v.io.ID, to})))
		}
	}

	inhIDs := make([]uint64, 0, len(g.inherited))
	for id := range g.inherited {
		inhIDs = append(inhIDs, id)
	}
	sort.Slice(inhIDs, func(i, j int) bool { return inhIDs[i] < inhIDs[j] })
	buf = binary.AppendUvarint(buf, uint64(len(inhIDs)))
	for _, id := range inhIDs {
		roots := g.inherited[id] // already ID-sorted by mergeRootSets/prune
		buf = binary.AppendUvarint(buf, id)
		buf = binary.AppendUvarint(buf, uint64(len(roots)))
		for i := range roots {
			buf = appendIO(buf, &roots[i])
		}
	}
	g.mu.RUnlock()

	buf = binary.AppendUvarint(buf, uint64(len(c.Retained)))
	for i := range c.Retained {
		buf = appendIO(buf, &c.Retained[i])
		if len(buf) > 1<<16 {
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("hbg: checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("hbg: bad checkpoint magic %q", magic)
	}
	c := &Checkpoint{Graph: New()}
	var err error
	if c.LastID, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("hbg: checkpoint watermark: %w", err)
	}
	if c.FirstRetainedID, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("hbg: checkpoint floor: %w", err)
	}
	if c.Graph.prunedBelow, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("hbg: checkpoint prune floor: %w", err)
	}

	nNodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("hbg: checkpoint node count: %w", err)
	}
	for i := uint64(0); i < nNodes; i++ {
		io, err := readIO(br)
		if err != nil {
			return nil, fmt.Errorf("hbg: checkpoint node %d: %w", i, err)
		}
		c.Graph.addNodesLocked([]capture.IO{io})
	}

	nEdges, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("hbg: checkpoint edge count: %w", err)
	}
	for i := uint64(0); i < nEdges; i++ {
		from, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("hbg: checkpoint edge %d: %w", i, err)
		}
		to, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("hbg: checkpoint edge %d: %w", i, err)
		}
		var raw [8]byte
		if _, err := io.ReadFull(br, raw[:]); err != nil {
			return nil, fmt.Errorf("hbg: checkpoint edge %d conf: %w", i, err)
		}
		c.Graph.addEdgeConfLocked(from, to, math.Float64frombits(binary.LittleEndian.Uint64(raw[:])))
	}

	nInh, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("hbg: checkpoint inherited count: %w", err)
	}
	for i := uint64(0); i < nInh; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("hbg: checkpoint inherited key %d: %w", i, err)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("hbg: checkpoint inherited size %d: %w", i, err)
		}
		roots := make([]capture.IO, 0, n)
		for j := uint64(0); j < n; j++ {
			io, err := readIO(br)
			if err != nil {
				return nil, fmt.Errorf("hbg: checkpoint inherited root %d/%d: %w", i, j, err)
			}
			roots = append(roots, io)
		}
		c.Graph.inherited[id] = roots
	}

	nRet, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("hbg: checkpoint retained count: %w", err)
	}
	c.Retained = make([]capture.IO, 0, nRet)
	for i := uint64(0); i < nRet; i++ {
		io, err := readIO(br)
		if err != nil {
			return nil, fmt.Errorf("hbg: checkpoint retained %d: %w", i, err)
		}
		c.Retained = append(c.Retained, io)
	}
	return c, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendAddr(dst []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(dst, 0)
	}
	b := a.AsSlice()
	dst = append(dst, byte(len(b)))
	return append(dst, b...)
}

func appendPrefix(dst []byte, p netip.Prefix) []byte {
	if !p.IsValid() {
		return append(dst, 0)
	}
	dst = appendAddr(dst, p.Addr())
	return append(dst, byte(p.Bits()))
}

// appendIO serializes one capture.IO, every field included so the
// round-trip is lossless (oracle fields are typically zero in daemon
// deployments but cost one byte each when absent).
func appendIO(dst []byte, io *capture.IO) []byte {
	dst = binary.AppendUvarint(dst, io.ID)
	dst = appendString(dst, io.Router)
	dst = append(dst, byte(io.Type), byte(io.Proto))
	dst = appendPrefix(dst, io.Prefix)
	dst = appendAddr(dst, io.NextHop)
	dst = appendString(dst, io.Peer)
	dst = appendAddr(dst, io.PeerAddr)
	dst = binary.AppendUvarint(dst, uint64(io.Attrs.LocalPref))
	dst = binary.AppendUvarint(dst, uint64(io.Attrs.MED))
	dst = append(dst, byte(io.Attrs.Origin))
	dst = binary.AppendUvarint(dst, uint64(len(io.Attrs.ASPath)))
	for _, as := range io.Attrs.ASPath {
		dst = binary.AppendUvarint(dst, uint64(as))
	}
	dst = binary.AppendUvarint(dst, uint64(len(io.Attrs.Communities)))
	for _, c := range io.Attrs.Communities {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = appendAddr(dst, io.Attrs.OriginatorID)
	dst = binary.AppendUvarint(dst, uint64(len(io.Attrs.ClusterList)))
	for _, a := range io.Attrs.ClusterList {
		dst = appendAddr(dst, a)
	}
	dst = appendString(dst, io.Detail)
	dst = binary.AppendVarint(dst, int64(io.Time))
	dst = binary.AppendVarint(dst, int64(io.TrueTime))
	dst = binary.AppendUvarint(dst, uint64(len(io.Causes)))
	for _, c := range io.Causes {
		dst = binary.AppendUvarint(dst, c)
	}
	return dst
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func readAddr(br *bufio.Reader) (netip.Addr, error) {
	n, err := br.ReadByte()
	if err != nil {
		return netip.Addr{}, err
	}
	if n == 0 {
		return netip.Addr{}, nil
	}
	if n != 4 && n != 16 {
		return netip.Addr{}, fmt.Errorf("address length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return netip.Addr{}, err
	}
	a, ok := netip.AddrFromSlice(b)
	if !ok {
		return netip.Addr{}, fmt.Errorf("bad address bytes")
	}
	return a, nil
}

func readPrefix(br *bufio.Reader) (netip.Prefix, error) {
	a, err := readAddr(br)
	if err != nil {
		return netip.Prefix{}, err
	}
	if !a.IsValid() {
		return netip.Prefix{}, nil
	}
	bits, err := br.ReadByte()
	if err != nil {
		return netip.Prefix{}, err
	}
	p := netip.PrefixFrom(a, int(bits))
	if !p.IsValid() {
		return netip.Prefix{}, fmt.Errorf("bad prefix %s/%d", a, bits)
	}
	return p, nil
}

func readUint32s(br *bufio.Reader) ([]uint32, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("list length %d too large", n)
	}
	out := make([]uint32, 0, n)
	for i := uint64(0); i < n; i++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		out = append(out, uint32(v))
	}
	return out, nil
}

func readIO(br *bufio.Reader) (capture.IO, error) {
	var out capture.IO
	var err error
	if out.ID, err = binary.ReadUvarint(br); err != nil {
		return out, err
	}
	if out.Router, err = readString(br); err != nil {
		return out, err
	}
	var tp [2]byte
	if _, err = io.ReadFull(br, tp[:]); err != nil {
		return out, err
	}
	out.Type, out.Proto = capture.Type(tp[0]), route.Protocol(tp[1])
	if out.Prefix, err = readPrefix(br); err != nil {
		return out, err
	}
	if out.NextHop, err = readAddr(br); err != nil {
		return out, err
	}
	if out.Peer, err = readString(br); err != nil {
		return out, err
	}
	if out.PeerAddr, err = readAddr(br); err != nil {
		return out, err
	}
	lp, err := binary.ReadUvarint(br)
	if err != nil {
		return out, err
	}
	med, err := binary.ReadUvarint(br)
	if err != nil {
		return out, err
	}
	origin, err := br.ReadByte()
	if err != nil {
		return out, err
	}
	out.Attrs.LocalPref, out.Attrs.MED, out.Attrs.Origin = uint32(lp), uint32(med), route.Origin(origin)
	if out.Attrs.ASPath, err = readUint32s(br); err != nil {
		return out, err
	}
	if out.Attrs.Communities, err = readUint32s(br); err != nil {
		return out, err
	}
	if out.Attrs.OriginatorID, err = readAddr(br); err != nil {
		return out, err
	}
	nCL, err := binary.ReadUvarint(br)
	if err != nil {
		return out, err
	}
	if nCL > 1<<20 {
		return out, fmt.Errorf("cluster list length %d too large", nCL)
	}
	for i := uint64(0); i < nCL; i++ {
		a, err := readAddr(br)
		if err != nil {
			return out, err
		}
		out.Attrs.ClusterList = append(out.Attrs.ClusterList, a)
	}
	if out.Detail, err = readString(br); err != nil {
		return out, err
	}
	t, err := binary.ReadVarint(br)
	if err != nil {
		return out, err
	}
	tt, err := binary.ReadVarint(br)
	if err != nil {
		return out, err
	}
	out.Time, out.TrueTime = netsim.VirtualTime(t), netsim.VirtualTime(tt)
	nC, err := binary.ReadUvarint(br)
	if err != nil {
		return out, err
	}
	if nC > 1<<20 {
		return out, fmt.Errorf("causes length %d too large", nC)
	}
	for i := uint64(0); i < nC; i++ {
		c, err := binary.ReadUvarint(br)
		if err != nil {
			return out, err
		}
		out.Causes = append(out.Causes, c)
	}
	return out, nil
}
