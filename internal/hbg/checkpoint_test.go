package hbg

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
	"hbverify/internal/wire/wiretest"
)

func testIO(id uint64, router string) capture.IO {
	return capture.IO{
		ID:      id,
		Router:  router,
		Type:    capture.RecvAdvert,
		Proto:   route.ProtoBGP,
		Prefix:  netip.MustParsePrefix("10.0.0.0/8"),
		NextHop: netip.MustParseAddr("192.168.0.1"),
		Peer:    "peer-" + router,
		Attrs: route.BGPAttrs{
			LocalPref:    200,
			ASPath:       []uint32{65001, 65002},
			MED:          7,
			Communities:  []uint32{0x10001},
			OriginatorID: netip.MustParseAddr("10.9.9.9"),
			ClusterList:  []netip.Addr{netip.MustParseAddr("10.8.8.8")},
		},
		Detail: "detail " + router,
		Time:   netsim.VirtualTime(1000 * id),
	}
}

// chainGraph builds 1 -> 2 -> ... -> n with a couple of extra roots.
func chainGraph(n uint64) *Graph {
	g := New()
	for i := uint64(1); i <= n; i++ {
		g.AddNode(testIO(i, "r1"))
	}
	for i := uint64(1); i < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := chainGraph(6)
	g.PruneBefore(3)
	cp := &Checkpoint{
		Graph:           g,
		LastID:          6,
		FirstRetainedID: 3,
		Retained:        []capture.IO{testIO(3, "r1"), testIO(4, "r1"), testIO(5, "r1"), testIO(6, "r1")},
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.LastID != 6 || got.FirstRetainedID != 3 {
		t.Fatalf("watermarks = %d/%d", got.LastID, got.FirstRetainedID)
	}
	if !reflect.DeepEqual(got.Retained, cp.Retained) {
		t.Fatalf("retained diverged:\n got %+v\nwant %+v", got.Retained, cp.Retained)
	}
	if !reflect.DeepEqual(got.Graph.Nodes(), g.Nodes()) {
		t.Fatal("nodes diverged")
	}
	if !reflect.DeepEqual(got.Graph.Edges(), g.Edges()) {
		t.Fatal("edges diverged")
	}
	if got.Graph.PrunedBelow() != g.PrunedBelow() {
		t.Fatalf("prune floor = %d, want %d", got.Graph.PrunedBelow(), g.PrunedBelow())
	}
	if !reflect.DeepEqual(got.Graph.RootCauses(6), g.RootCauses(6)) {
		t.Fatalf("root causes diverged:\n got %+v\nwant %+v", got.Graph.RootCauses(6), g.RootCauses(6))
	}
}

// TestCheckpointByteDeterminism: the same logical state must encode to the
// same bytes regardless of insertion order, and a decode/re-encode cycle
// must be byte-identical.
func TestCheckpointByteDeterminism(t *testing.T) {
	build := func(reverse bool) *Graph {
		g := New()
		ids := []uint64{1, 2, 3, 4, 5}
		if reverse {
			for i := len(ids) - 1; i >= 0; i-- {
				g.AddNode(testIO(ids[i], "r1"))
			}
			g.AddEdge(3, 4)
			g.AddEdge(1, 2)
			g.AddEdge(2, 4)
		} else {
			for _, id := range ids {
				g.AddNode(testIO(id, "r1"))
			}
			g.AddEdge(2, 4)
			g.AddEdge(1, 2)
			g.AddEdge(3, 4)
		}
		g.PruneBefore(2)
		return g
	}
	encode := func(g *Graph) []byte {
		cp := &Checkpoint{Graph: g, LastID: 5, FirstRetainedID: 2,
			Retained: []capture.IO{testIO(2, "r1"), testIO(3, "r1")}}
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(build(false)), encode(build(true))
	if !bytes.Equal(a, b) {
		t.Fatal("insertion order leaked into checkpoint bytes")
	}
	cp, err := DecodeCheckpoint(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	cp2 := &Checkpoint{Graph: cp.Graph, LastID: cp.LastID,
		FirstRetainedID: cp.FirstRetainedID, Retained: cp.Retained}
	var buf2 bytes.Buffer
	if err := cp2.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, buf2.Bytes()) {
		t.Fatal("decode/re-encode cycle not byte-identical")
	}
}

// smallCheckpoint is a valid checkpoint exercising every section: nodes
// (one with an ECMP set), edges, inherited roots, and a retained window.
func smallCheckpoint(t testing.TB) []byte {
	t.Helper()
	g := chainGraph(4)
	g.AddNode(ecmpIO(5))
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	g.PruneBefore(3)
	cp := &Checkpoint{Graph: g, LastID: 5, FirstRetainedID: 3, Retained: []capture.IO{testIO(3, "r1"), ecmpIO(5)}}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func ecmpIO(id uint64) capture.IO {
	io := testIO(id, "r2")
	io.Type = capture.FIBInstall
	io.NextHops = []netip.Addr{io.NextHop, io.NextHop.Next()}
	return io
}

// TestCheckpointKeepsNextHops: HBGCKPT1 predated IO.NextHops and returned a
// two-next-hop FIBInstall with none, in the graph and in the window.
func TestCheckpointKeepsNextHops(t *testing.T) {
	cp, err := DecodeCheckpoint(bytes.NewReader(smallCheckpoint(t)))
	if err != nil {
		t.Fatal(err)
	}
	want := ecmpIO(5)
	if got, _ := cp.Graph.Node(5); !reflect.DeepEqual(got, want) {
		t.Errorf("graph vertex:\n got %+v\nwant %+v", got, want)
	}
	if got := cp.Retained[len(cp.Retained)-1]; !reflect.DeepEqual(got, want) {
		t.Errorf("retained event:\n got %+v\nwant %+v", got, want)
	}
}

// recodeCheckpoint decodes data and encodes the result again.
func recodeCheckpoint(data []byte) ([]byte, error) {
	cp, err := DecodeCheckpoint(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = cp.Encode(&buf)
	return buf.Bytes(), err
}

// Two counts the bufio decoder trusted: both made it ask for terabytes
// (makeslice panic, or an allocation the machine cannot serve).
var (
	hugeRetainedCount = binary.AppendUvarint(append([]byte(checkpointMagic), 0, 0, 0, 0, 0, 0), 1<<62)
	hugeRootsCount    = binary.AppendUvarint(append([]byte(checkpointMagic), 0, 0, 0, 0, 0, 1, 7), 1<<40)
)

func TestCheckpointDecodeErrors(t *testing.T) {
	valid := smallCheckpoint(t)
	for name, data := range map[string][]byte{
		"bad magic":     []byte("NOTCKPT0"),
		"trailing byte": append(bytes.Clone(valid), 0),
	} {
		if _, err := DecodeCheckpoint(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for count, data := range map[string][]byte{"retained count": hugeRetainedCount, "inherited root count": hugeRootsCount} {
		if _, err := DecodeCheckpoint(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), count) {
			t.Errorf("huge %s: err = %v, want one naming the count", count, err)
		}
	}
	// Retired versions are named, not read: the rest of the file is this
	// version's, which a v2 decoder would misread as confidence bytes.
	for _, old := range []string{checkpointMagicV1, checkpointMagicV2} {
		data := append([]byte(old), valid[len(checkpointMagic):]...)
		_, err := DecodeCheckpoint(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), checkpointMagic) {
			t.Errorf("%s checkpoint: err = %v, want one naming both versions", old, err)
		}
	}
	// Every strict prefix must surface an error, never panic.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeCheckpoint(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
		}
	}
}

// TestCheckpointBitFlips: every single-bit corruption of a valid checkpoint
// is an error or decodes to a state that re-encodes to a fixed point
// (wiretest.CheckDecoder).
func TestCheckpointBitFlips(t *testing.T) {
	valid := smallCheckpoint(t)
	accepted := 0
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			data := bytes.Clone(valid)
			data[i] ^= 1 << bit
			if wiretest.CheckDecoder(t, data, recodeCheckpoint) != nil {
				accepted++
			}
		}
	}
	t.Logf("%d of %d flips decode", accepted, 8*len(valid))
}

// FuzzDecodeCheckpoint holds DecodeCheckpoint to wiretest.CheckDecoder's
// contract on arbitrary bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(smallCheckpoint(f))
	f.Add(hugeRetainedCount)
	f.Add(hugeRootsCount)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		wiretest.CheckDecoder(t, data, recodeCheckpoint)
	})
}

func TestPruneBeforeFoldsRootCauses(t *testing.T) {
	// 1 (config root) -> 2 -> 3 -> 4; 5 is an independent root of 4.
	g := New()
	for i := uint64(1); i <= 5; i++ {
		g.AddNode(testIO(i, "r1"))
	}
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(5, 4)

	before3, before4 := g.RootCauses(3), g.RootCauses(4)

	g.PruneBefore(3)

	if g.NodeCount() != 3 {
		t.Fatalf("node count = %d, want 3", g.NodeCount())
	}
	if hasEdge(g, 1, 2) || hasEdge(g, 2, 3) {
		t.Fatal("pruned edges survived")
	}
	if !hasEdge(g, 3, 4) || !hasEdge(g, 5, 4) {
		t.Fatal("retained edges lost")
	}
	if got := g.RootCauses(3); !reflect.DeepEqual(got, before3) {
		t.Fatalf("RootCauses(3) changed across prune:\n got %+v\nwant %+v", got, before3)
	}
	if got := g.RootCauses(4); !reflect.DeepEqual(got, before4) {
		t.Fatalf("RootCauses(4) changed across prune:\n got %+v\nwant %+v", got, before4)
	}

	// Prune is monotone: pruning again at a higher floor keeps folding.
	g.PruneBefore(4)
	if got := g.RootCauses(4); !reflect.DeepEqual(got, before4) {
		t.Fatalf("RootCauses(4) changed across second prune:\n got %+v\nwant %+v", got, before4)
	}
	if g.PrunedBelow() != 4 {
		t.Fatalf("PrunedBelow = %d, want 4", g.PrunedBelow())
	}
}
