package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
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

// The v1 header check and the type dispatch exist once each, in
// endpoint.listen and in each server's handle; the two tests below drive
// them with frames no v1 peer sends: a JSON envelope (what the removed
// transport spoke — each is a well-formed message of that format, so
// delivery would be observable), a v1 frame cut off after the version byte,
// and well-formed v1 frames of the unassigned types.
var (
	jsonWalk   = []byte(`{"kind":"walk","walk":{"WalkID":7,"Source":"r1","Dst":"203.0.113.1","Msgs":1}}`)
	jsonResult = []byte(`{"kind":"result","walk":{"WalkID":7,"Source":"r1","Dst":"203.0.113.1","Done":true}}`)
	shortV1    = []byte{frameV1}
	// Type 1 with the one walk it carried before walks travelled in
	// batches; types 5 and 6 with the provenance query they carried
	// (query 7, cursor 1, no hops, no error, an empty path; 6 is done).
	retired = [][]byte{
		append([]byte{frameV1, 1}, appendWalk(nil, &WalkMsg{WalkID: 7, Source: "r1", Dst: netip.MustParseAddr("203.0.113.1"), Msgs: 1})...),
		{frameV1, 5, 7, 1, 0, 0, 0, 0},
		{frameV1, 6, 7, 1, 0, 1, 0, 0},
	}
)

// dropped is every frame a server must drop, then valid.
func dropped(envelope, valid []byte) [][]byte {
	return slices.Concat([][]byte{envelope, shortV1}, retired, [][]byte{valid})
}

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
	f := startFleet(t, pn.Network)
	results := make(chan WalkMsg, 4)
	expectIDs(f, results, 7, 8)
	valid := appendWalkBatch(nil, mtWalkBatch, 1, []WalkMsg{{
		WalkID: 8, Source: "r1", Dst: dataplane.Representative(pn.P), Msgs: 1,
	}})
	sendRaw(t, f.Node("r1").Addr(), dropped(jsonWalk, valid)...)
	expectOnly(t, results, func(w WalkMsg) bool { return w.WalkID == 8 && len(w.Exps) > 0 })
}

func TestFleetDropsNonV1Frames(t *testing.T) {
	f := startFleet(t, startPaper(t, network.DefaultPaperOpts()).Network)
	results := make(chan WalkMsg, 4)
	expectIDs(f, results, 7, 8)
	valid := appendWalkBatch(nil, mtResultBatch, 1, []WalkMsg{{WalkID: 8}})
	sendRaw(t, f.Addr(), dropped(jsonResult, valid)...)
	expectOnly(t, results, func(w WalkMsg) bool { return w.WalkID == 8 })
}

// expectIDs registers ids as requests whose replies go to ch.
func expectIDs[T any](f *Fleet, ch chan<- T, ids ...int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, id := range ids {
		f.waiting[id] = ch
	}
}

// TestFleetDropsUnawaitedReplies: the fleet's one reply path drops a walk
// result and a check report whose ID nobody waits for — never registered,
// reclaimed after a deadline, or registered for the other kind of reply —
// without blocking the connection they came on, and delivers the
// registered reply of each kind sent behind them.
func TestFleetDropsUnawaitedReplies(t *testing.T) {
	f := startFleet(t, startPaper(t, network.DefaultPaperOpts()).Network)
	walks := make(chan WalkMsg, 4)
	reports := make(chan LocalReport, 4)
	expectIDs(f, walks, 3, 5)
	expectIDs(f, reports, 4, 6)
	// 5 and 6 lapse: their waits reclaim them.
	walkID := func(w WalkMsg) int { return w.WalkID }
	syncID := func(r LocalReport) int { return r.Sync }
	if why := wait(f, walks, map[int]int{5: 0}, walkID, time.Millisecond, func(int, WalkMsg) {}); why != "after 1ms" {
		t.Fatalf("walk wait with no reply: %q", why)
	}
	if why := wait(f, reports, map[int]int{6: 0}, syncID, time.Millisecond, func(int, LocalReport) {}); why != "after 1ms" {
		t.Fatalf("report wait with no reply: %q", why)
	}
	// 9 was never registered, 5 and 6 lapsed, and 4 and 3 await the other
	// kind of reply.
	var unawaited []WalkMsg
	for _, id := range []int{9, 5, 4} {
		unawaited = append(unawaited, WalkMsg{WalkID: id})
	}
	frames := [][]byte{appendWalkBatch(nil, mtResultBatch, 1, unawaited)}
	for _, sync := range []int{9, 6, 3} {
		frames = append(frames, appendLocalReport(nil, &LocalReport{Sync: sync, Router: "r1"}))
	}
	frames = append(frames,
		appendWalkBatch(nil, mtResultBatch, 2, []WalkMsg{{WalkID: 3}}),
		appendLocalReport(nil, &LocalReport{Sync: 4, Router: "r1"}))
	sendRaw(t, f.Addr(), frames...)
	expectOnly(t, walks, func(w WalkMsg) bool { return w.WalkID == 3 })
	expectOnly(t, reports, func(r LocalReport) bool { return r.Sync == 4 })
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.waiting) != 0 {
		t.Fatalf("requests still waiting: %v", f.waiting)
	}
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

// TestCloseIsIdempotent: a node and a fleet each close twice without
// error, with a client connection open so Close has a reader to unpark.
func TestCloseIsIdempotent(t *testing.T) {
	none := func(string) (string, bool) { return "", false }
	node, err := startNode("r1", dataplane.NewFrozen(netip.Addr{}, nil, nil), none, "")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(startPaper(t, network.DefaultPaperOpts()).Live(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]interface {
		Addr() string
		Close() error
	}{"Node": node, "Fleet": fleet} {
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
		WalkID: 42, Source: "r1", Dst: a, Hops: 2, Msgs: 3, Err: "boom",
		Frontier: []FrontierHop{{Router: "r3", Depth: 2}},
		Exps:     []ExpMsg{{Router: "r1", Expansion: dataplane.Expansion{Delivered: true, Stuck: true, Nexts: []string{"r2", "r3"}}}},
	}}
	delta := viewDelta{
		Router: "r1", Sync: 9, HasIface: true, Removes: []netip.Prefix{p},
		Installs: []fib.Entry{{Prefix: p, NextHop: a, Proto: route.ProtoBGP, NextHops: []netip.Addr{a, a.Next()}}},
		Ifaces:   []dataplane.Iface{{Name: "eth0", Addr: a, Prefix: netip.PrefixFrom(a, 30).Masked(), PeerAddr: a.Next(), PeerName: "r2", Up: true}},
	}
	labels := localck.NodeLabels{Epoch: 3, Own: map[netip.Prefix]int{p: 2}, Peers: map[string]map[netip.Prefix]int{"r2": {p: 1}}}
	report := LocalReport{Sync: 9, Router: "r1", Epoch: 3, Checked: 1, Violations: []localck.Violation{{
		Router: "r1", Prefix: p, Invariant: localck.InvSelfLoop, Detail: "cycle", SuspectHops: []netip.Addr{a},
	}}}
	return [][]byte{
		appendWalkBatch(nil, mtWalkBatch, 7, walks),
		appendWalkBatch(nil, mtResultBatch, 7, walks),
		appendViewDelta(nil, &delta),
		appendLabels(nil, "r1", labels),
		appendLocalReport(nil, &report),
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
	for _, frame := range retired {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > 1<<16 {
			return
		}
		if enc := wiretest.CheckDecoder(t, frame, recode); enc != nil && !bytes.Equal(enc[:2], frame[:2]) {
			t.Fatalf("frame header changed: %x -> %x", frame[:2], enc[:2])
		}
	})
}
