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
	"sort"

	"hbverify/internal/capture"
	"hbverify/internal/wire"
)

// checkpointMagic versions the format; bump on any layout change. Older
// versions are rejected, not migrated: v1 predates capture.IO.NextHops and
// so lost every ECMP set it was given, and v2 stored a confidence with every
// edge.
const (
	checkpointMagic   = "HBGCKPT3"
	checkpointMagicV1 = "HBGCKPT1"
	checkpointMagicV2 = "HBGCKPT2"
)

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
		buf = capture.AppendIO(buf, &v.io)
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
			buf = capture.AppendIO(buf, &roots[i])
		}
	}
	g.mu.RUnlock()

	buf = binary.AppendUvarint(buf, uint64(len(c.Retained)))
	for i := range c.Retained {
		buf = capture.AppendIO(buf, &c.Retained[i])
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

// DecodeCheckpoint reads a checkpoint written by Encode. The bytes are
// foreign — whatever a crash left on disk — so every malformation is an
// error: r is read to its end and decoded through the bounded wire.Reader,
// which holds the file in memory for the duration (the retained window the
// decode produces is larger).
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("hbg: read checkpoint: %w", err)
	}
	rd := wire.NewReader(data)
	switch magic := string(rd.Take(len(checkpointMagic))); magic {
	case checkpointMagic:
	case checkpointMagicV1, checkpointMagicV2:
		return nil, fmt.Errorf("hbg: checkpoint is %s, this build reads only %s", magic, checkpointMagic)
	default:
		return nil, fmt.Errorf("hbg: bad checkpoint magic %q", magic)
	}
	section := func(what string) error {
		if err := rd.Err(); err != nil {
			return fmt.Errorf("hbg: checkpoint %s: %w", what, err)
		}
		return nil
	}
	c := &Checkpoint{Graph: New()}
	g := c.Graph
	c.LastID = rd.Uvarint()
	c.FirstRetainedID = rd.Uvarint()
	g.prunedBelow = rd.Uvarint()

	for i := rd.Count("node", capture.MinIOBytes); i > 0 && rd.Err() == nil; i-- {
		io := capture.ReadIO(rd)
		g.addNodeLocked(&io)
	}
	if err := section("nodes"); err != nil {
		return nil, err
	}

	// An edge is two uvarints.
	for i := rd.Count("edge", 2); i > 0; i-- {
		from, to := rd.Uvarint(), rd.Uvarint()
		if rd.Err() != nil {
			break
		}
		g.addEdgeLocked(from, to)
	}
	if err := section("edges"); err != nil {
		return nil, err
	}

	for i := rd.Count("inherited", 2); i > 0 && rd.Err() == nil; i-- {
		id := rd.Uvarint()
		g.inherited[id] = ioList(rd, "inherited root")
	}
	if err := section("inherited roots"); err != nil {
		return nil, err
	}

	c.Retained = ioList(rd, "retained")
	if err := section("retained window"); err != nil {
		return nil, err
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("hbg: checkpoint has %d bytes after its end", rd.Len())
	}
	return c, nil
}

// ioList reads a count and that many I/Os; nil when there are none.
func ioList(r *wire.Reader, what string) []capture.IO {
	n := r.Count(what, capture.MinIOBytes)
	if n == 0 {
		return nil
	}
	out := make([]capture.IO, n)
	for i := range out {
		out[i] = capture.ReadIO(r)
	}
	return out
}
