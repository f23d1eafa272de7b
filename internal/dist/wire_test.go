package dist

import (
	"bytes"
	"encoding/binary"
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

// Frames no v1 peer sends: a JSON envelope (what the removed transport
// spoke — each is a well-formed message of that format, so delivery would
// be observable) and a v1 frame cut off after the version byte.
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

	// Node: only the v1 query is expanded and answered.
	sendRaw(t, nodes["r1"].Addr(), jsonProv, shortV1, appendProv(nil, mtProv, &ProvQuery{QueryID: 8, Cursor: 1}))
	expectOnly(t, coord.results, func(q ProvQuery) bool { return q.QueryID == 8 && q.Done && len(q.Path) == 1 })

	// Coordinator: only the v1 result reaches Trace's channel.
	sendRaw(t, coord.Addr(), jsonProvResult, shortV1, appendProv(nil, mtProvResult, &ProvQuery{QueryID: 9, Done: true}))
	expectOnly(t, coord.results, func(q ProvQuery) bool { return q.QueryID == 9 })
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
		ID: 7, Router: "r2", Type: capture.FIBInstall, Proto: route.ProtoBGP, Prefix: p, NextHop: a, Peer: "r1", PeerAddr: a,
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
// the result again; ok is false when the frame is rejected.
func recode(frame []byte) (out []byte, ok bool) {
	if len(frame) < 2 || frame[0] != frameV1 {
		return nil, false
	}
	r := &wireReader{b: frame[2:]}
	switch mt := frame[1]; mt {
	case mtWalkBatch, mtResultBatch:
		id, walks := r.walkBatch()
		out = appendWalkBatch(nil, mt, id, walks)
	case mtViewDelta:
		d := r.viewDelta()
		out = appendViewDelta(nil, &d)
	case mtLabels:
		router, nl := r.labels()
		out = appendLabels(nil, router, nl)
	case mtLocalViolation:
		rep := r.localReport()
		out = appendLocalReport(nil, &rep)
	case mtProv, mtProvResult:
		q := r.prov()
		out = appendProv(nil, mt, &q)
	default:
		return nil, false
	}
	return out, r.err == nil
}

func TestWireSeedsRoundTrip(t *testing.T) {
	for i, seed := range fuzzSeeds() {
		if out, ok := recode(seed); !ok || !bytes.Equal(out, seed) {
			t.Errorf("seed %d: decode→encode changed a well-formed frame (ok=%v)", i, ok)
		}
	}
}

// FuzzWireReader feeds arbitrary bytes to every decoder a server runs on
// frames it did not write. The decoders must not panic, must not allocate
// beyond a small multiple of the input (collection counts are bounded by
// the remaining payload), and whatever they accept must re-encode to a
// frame that decodes to the same value: encode→decode→encode is a fixed
// point, so no accepted frame is read two ways.
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
		enc1, ok := recode(frame)
		if !ok {
			return
		}
		// wireReader.count caps every collection length by the bytes left, so
		// a decode holds O(len(frame)) elements; what it accepted re-encodes
		// to about its own size.
		if len(enc1) > 64*len(frame)+64 {
			t.Fatalf("%d-byte frame decoded to %d bytes", len(frame), len(enc1))
		}
		enc2, ok := recode(enc1)
		if !ok {
			t.Fatalf("re-encoded frame rejected: %x", enc1)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode→decode→encode not a fixed point:\n %x\n %x", enc1, enc2)
		}
		if !bytes.Equal(enc1[:2], frame[:2]) {
			t.Fatalf("frame header changed: %x -> %x", frame[:2], enc1[:2])
		}
	})
}
