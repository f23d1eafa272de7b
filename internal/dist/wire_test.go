package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/hbg"
	"hbverify/internal/localck"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/wire"
	"hbverify/internal/wire/wiretest"
)

// sendRaw dials addr and writes each payload as one length-prefixed frame
// on a single connection, so the server sees them in order.
func sendRaw(t *testing.T, addr string, payloads ...[]byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, p := range payloads {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
		if _, err := conn.Write(append(hdr[:], p...)); err != nil {
			t.Fatal(err)
		}
	}
}

// The v1 header check exists once, in endpoint.listen; the three tests
// below drive it through each kind of handler with frames no v1 peer sends:
// a JSON envelope (what the removed transport spoke — each is a well-formed
// message of that format, so delivery would be observable) and a v1 frame
// cut off after the version byte.
var (
	jsonWalk       = []byte(`{"kind":"walk","walk":{"WalkID":7,"Source":"r1","Dst":"203.0.113.1","Msgs":1}}`)
	jsonResult     = []byte(`{"kind":"result","walk":{"WalkID":7,"Source":"r1","Dst":"203.0.113.1","Done":true}}`)
	jsonProv       = []byte(`{"kind":"prov","hbg":{"kind":"prov","query":{"QueryID":7,"Cursor":1}}}`)
	jsonProvResult = []byte(`{"kind":"prov-result","hbg":{"kind":"prov-result","query":{"QueryID":7,"Done":true}}}`)
	shortV1        = []byte{frameV1}
)

// expectOnly waits for one message on ch, checks it, and requires that
// nothing else was delivered.
func expectOnly[T any](t *testing.T, ch <-chan T, check func(T) bool) {
	t.Helper()
	select {
	case got := <-ch:
		if !check(got) {
			t.Fatalf("a dropped frame was delivered: %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the valid frame behind the dropped ones never arrived")
	}
	select {
	case extra := <-ch:
		t.Fatalf("extra delivery: %+v", extra)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestNodeDropsNonV1Frames(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	coord, nodes, teardown, err := BuildFleet(pn.Network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	results := make(chan WalkMsg, 4)
	coord.mu.Lock()
	coord.pending[7], coord.pending[8] = results, results
	coord.mu.Unlock()
	valid := appendWalkBatch(nil, mtWalkBatch, 1, []WalkMsg{{
		WalkID: 8, Source: "r1", Dst: dataplane.Representative(pn.P), Msgs: 1,
	}})
	sendRaw(t, nodes["r1"].Addr(), jsonWalk, shortV1, valid)
	expectOnly(t, results, func(w WalkMsg) bool { return w.WalkID == 8 && w.Done })
}

func TestCoordinatorDropsNonV1Frames(t *testing.T) {
	coord, err := StartCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	results := make(chan WalkMsg, 4)
	coord.mu.Lock()
	coord.pending[7], coord.pending[8] = results, results
	coord.mu.Unlock()
	valid := appendWalkBatch(nil, mtResultBatch, 1, []WalkMsg{{WalkID: 8, Done: true}})
	sendRaw(t, coord.Addr(), jsonResult, shortV1, valid)
	expectOnly(t, results, func(w WalkMsg) bool { return w.WalkID == 8 })
}

func TestHBGServersDropNonV1Frames(t *testing.T) {
	g := hbg.New()
	g.AddNode(capture.IO{ID: 1, Router: "r1", Type: capture.ConfigChange})
	coord, nodes, teardown, err := BuildHBGFleet(g)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()

	results := make(chan ProvQuery, 4)
	coord.mu.Lock()
	for id := 7; id <= 9; id++ {
		coord.pending[id] = results
	}
	coord.mu.Unlock()

	// Node: only the v1 query is expanded and answered.
	sendRaw(t, nodes["r1"].Addr(), jsonProv, shortV1, appendProv(nil, mtProv, &ProvQuery{QueryID: 8, Cursor: 1}))
	expectOnly(t, results, func(q ProvQuery) bool { return q.QueryID == 8 && q.Done && len(q.Path) == 1 })

	// Coordinator: only the v1 result reaches a waiting trace.
	sendRaw(t, coord.Addr(), jsonProvResult, shortV1, appendProv(nil, mtProvResult, &ProvQuery{QueryID: 9, Done: true}))
	expectOnly(t, results, func(q ProvQuery) bool { return q.QueryID == 9 })
}

// TestConnSetRefusesAfterCloseAll: a connection accepted between the
// listener closing and closeAll running used to be registered after
// closeAll and never closed, parking Close on wg.Wait for the idle timeout.
func TestConnSetRefusesAfterCloseAll(t *testing.T) {
	s := newConnSet()
	s.closeAll()
	ours, theirs := net.Pipe()
	defer theirs.Close()
	if s.add(ours) {
		t.Fatal("add after closeAll registered the connection")
	}
	_ = theirs.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := theirs.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the late connection was not closed: read err = %v", err)
	}
}

// TestCloseIsIdempotent: every server closes twice without error, with a
// client connection open so Close has a reader to unpark.
func TestCloseIsIdempotent(t *testing.T) {
	none := func(string) (string, bool) { return "", false }
	node, err := StartNode(LocalView{Router: "r1"}, none, "")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := StartCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	hnode, err := StartHBGNode("r1", hbg.New(), nil, none, "")
	if err != nil {
		t.Fatal(err)
	}
	hcoord, err := StartHBGCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]interface {
		Addr() string
		Close() error
	}{"Node": node, "Coordinator": coord, "HBGNode": hnode, "HBGCoordinator": hcoord} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := 1; i <= 2; i++ {
			if err := srv.Close(); err != nil {
				t.Errorf("%s: Close #%d: %v", name, i, err)
			}
		}
	}
}

// TestTraceDropsStaleResult: the result of an earlier query that arrives
// late must not be handed to the next Trace as its answer.
func TestTraceDropsStaleResult(t *testing.T) {
	g := hbg.New()
	g.AddNode(capture.IO{ID: 1, Router: "r1", Type: capture.ConfigChange})
	coord, nodes, teardown, err := BuildHBGFleet(g)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	if _, err := coord.Trace(nodes, "r1", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sendRaw(t, coord.Addr(), appendProv(nil, mtProvResult, &ProvQuery{QueryID: 1, Done: true, Err: "stale"}))
	time.Sleep(100 * time.Millisecond) // let the coordinator read it
	path, err := coord.Trace(nodes, "r1", 1, 5*time.Second)
	if err != nil || len(path) != 1 || path[0].ID != 1 {
		t.Fatalf("trace after a stale result = %v, %v", path, err)
	}
}

// TestCountMinimums pins the element sizes the decoders bound counts by to
// what the encoders write for a zero value.
func TestCountMinimums(t *testing.T) {
	if n := len(appendWalk(nil, &WalkMsg{})); n != minWalkBytes {
		t.Errorf("empty walk encodes to %d bytes, minWalkBytes = %d", n, minWalkBytes)
	}
	if n := len(appendEntry(nil, fib.Entry{})); n != minEntryBytes {
		t.Errorf("empty entry encodes to %d bytes, minEntryBytes = %d", n, minEntryBytes)
	}
	if n := len(appendIface(nil, dataplane.Iface{})); n != minIfaceBytes {
		t.Errorf("empty iface encodes to %d bytes, minIfaceBytes = %d", n, minIfaceBytes)
	}
}

// fuzzSeeds is one well-formed frame from every append* encoder.
func fuzzSeeds() [][]byte {
	p := netip.MustParsePrefix("10.0.0.0/8")
	a := netip.MustParseAddr("192.168.1.2")
	walks := []WalkMsg{{
		WalkID: 42, Source: "r1", Dst: a, Path: []string{"r1", "r2"}, Hops: 2, Msgs: 3, Outcome: dataplane.Looped, Done: true,
		Egress: "r2", Err: "boom", Frontier: []FrontierHop{{Router: "r3", Depth: 2}},
		Exps:     []ExpMsg{{Router: "r1", Delivered: true, Stuck: true, Nexts: []string{"r2", "r3"}}},
		Egresses: []string{"r2"}, Edges: [][2]string{{"r1", "r2"}}, Branches: 1,
	}}
	delta := viewDelta{
		Router: "r1", Full: true, Sync: 9, HasIface: true, Removes: []netip.Prefix{p},
		Installs: []fib.Entry{{Prefix: p, NextHop: a, OutIface: "eth0", Proto: route.ProtoBGP, AD: 20, Metric: 7, NextHops: []netip.Addr{a, a.Next()}}},
		Ifaces:   []dataplane.Iface{{Name: "eth0", Addr: a, Prefix: netip.PrefixFrom(a, 30).Masked(), PeerAddr: a.Next(), PeerName: "r2", Up: true}},
	}
	labels := localck.NodeLabels{Epoch: 3, Own: map[netip.Prefix]int{p: 2}, Peers: map[string]map[netip.Prefix]int{"r2": {p: 1}}}
	report := LocalReport{Sync: 9, Router: "r1", Epoch: 3, Checked: 1, Violations: []localck.Violation{{
		Router: "r1", Prefix: p, Invariant: localck.InvSelfLoop, Detail: "cycle", SuspectHops: []netip.Addr{a},
	}}}
	prov := ProvQuery{QueryID: 3, Cursor: 99, Hops: 12, Done: true, Err: "nope", Path: []capture.IO{{
		ID: 7, Router: "r2", Type: capture.FIBInstall, Proto: route.ProtoBGP, Prefix: p, NextHop: a, NextHops: []netip.Addr{a, a.Next()},
		Peer: "r1", PeerAddr: a,
		Attrs: route.BGPAttrs{LocalPref: 200, ASPath: []uint32{65001}, MED: 5, Origin: 1, Communities: []uint32{1},
			OriginatorID: a, ClusterList: []netip.Addr{a}},
		Detail: "withdrawn", Time: -4, TrueTime: 17, Causes: []uint64{1, 2},
	}}}
	return [][]byte{
		appendWalkBatch(nil, mtWalkBatch, 7, walks),
		appendWalkBatch(nil, mtResultBatch, 7, walks),
		appendViewDelta(nil, &delta),
		appendLabels(nil, "r1", labels),
		appendLocalReport(nil, &report),
		appendProv(nil, mtProv, &prov),
		appendProv(nil, mtProvResult, &prov),
	}
}

// recode decodes one frame the way the servers' dispatch does and encodes
// the result again.
func recode(frame []byte) ([]byte, error) {
	if len(frame) < 2 || frame[0] != frameV1 {
		return nil, errors.New("not a v1 frame")
	}
	var out []byte
	r := wire.NewReader(frame[2:])
	switch mt := frame[1]; mt {
	case mtWalkBatch, mtResultBatch:
		id, walks := readWalkBatch(r)
		out = appendWalkBatch(nil, mt, id, walks)
	case mtViewDelta:
		d := readViewDelta(r)
		out = appendViewDelta(nil, &d)
	case mtLabels:
		router, nl := readLabels(r)
		out = appendLabels(nil, router, nl)
	case mtLocalViolation:
		rep := readLocalReport(r)
		out = appendLocalReport(nil, &rep)
	case mtProv, mtProvResult:
		q := readProv(r)
		out = appendProv(nil, mt, &q)
	default:
		return nil, errors.New("unknown message type")
	}
	return out, r.Err()
}

func TestWireSeedsRoundTrip(t *testing.T) {
	for i, seed := range fuzzSeeds() {
		if out, err := recode(seed); err != nil || !bytes.Equal(out, seed) {
			t.Errorf("seed %d: decode→encode changed a well-formed frame (err %v)", i, err)
		}
	}
}

// FuzzWireReader feeds arbitrary bytes to every decoder a server runs on
// frames it did not write, under wiretest.CheckDecoder's contract: no panic,
// bounded output, encode→decode→encode a fixed point.
func FuzzWireReader(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Add(shortV1)
	f.Add(jsonWalk)
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > 1<<16 {
			return
		}
		if enc := wiretest.CheckDecoder(t, frame, recode); enc != nil && !bytes.Equal(enc[:2], frame[:2]) {
			t.Fatalf("frame header changed: %x -> %x", frame[:2], enc[:2])
		}
	})
}
