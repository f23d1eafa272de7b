package stream

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/ciscolog"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// testStrategy keeps rule windows small so compaction floors are reachable
// inside short synthetic traces.
func testStrategy() hbr.Rules {
	return hbr.Rules{Window: 100 * time.Millisecond, ConfigWindow: 500 * time.Millisecond,
		CrossWindow: 100 * time.Millisecond}
}

func testFleet(waves int) Fleet {
	return Fleet{Routers: 4, Waves: waves, Skew: 30 * time.Millisecond}
}

// runDaemon consumes every fleet stream concurrently and waits.
func runDaemon(t *testing.T, d *Daemon, f Fleet) {
	t.Helper()
	streams := make([]*Stream, f.Routers)
	for i := 0; i < f.Routers; i++ {
		streams[i] = d.Register(f.RouterName(i))
	}
	var wg sync.WaitGroup
	for i := 0; i < f.Routers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i].Consume(f.Reader(i))
		}()
	}
	wg.Wait()
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
}

func edgesEqual(t *testing.T, got, want *hbg.Graph) {
	t.Helper()
	if got.NodeCount() != want.NodeCount() {
		t.Fatalf("node counts diverge: %d vs %d", got.NodeCount(), want.NodeCount())
	}
	ge, we := got.Edges(), want.Edges()
	seen := map[hbg.Edge]bool{}
	for _, e := range ge {
		seen[e] = true
	}
	missing := 0
	for _, e := range we {
		if !seen[e] {
			t.Errorf("missing edge %v", e)
			missing++
		}
		delete(seen, e)
	}
	for e := range seen {
		t.Errorf("extra edge %v", e)
	}
	if t.Failed() {
		t.Fatalf("edge sets diverge (%d got vs %d want, %d missing)", len(ge), len(we), missing)
	}
}

// TestMergeDeterministic: the merged capture order must be a pure function
// of the stream contents, independent of goroutine scheduling.
func TestMergeDeterministic(t *testing.T) {
	f := testFleet(60)
	run := func() []capture.IO {
		d, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(), BufferCap: 7})
		if err != nil {
			t.Fatal(err)
		}
		runDaemon(t, d, f)
		return d.Log().Snapshot()
	}
	a, b := run(), run()
	if len(a) != f.TotalEvents() {
		t.Fatalf("merged %d events, fleet generates %d", len(a), f.TotalEvents())
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs merged the same streams differently")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Time < a[i-1].Time {
			t.Fatalf("merge emitted out of time order at %d: %v after %v", i, a[i].Time, a[i-1].Time)
		}
	}
}

// TestCompactionMatchesFull: a daemon compacting every 64 events must end
// with the same graph as an unbounded daemon, modulo the prune floor.
func TestCompactionMatchesFull(t *testing.T) {
	f := testFleet(120)
	reg := metrics.NewRegistry()
	comp, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(),
		CompactEvery: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, comp, f)

	full, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, full, f)

	cg := comp.Graph()
	if cg.PrunedBelow() == 0 {
		t.Fatalf("compaction never pruned (evicted=%d); windows too wide for the trace",
			reg.Counter("stream.compact.evicted").Value())
	}
	if comp.Log().Len() >= full.Log().Len() {
		t.Fatalf("compaction did not shrink the window: %d vs %d", comp.Log().Len(), full.Log().Len())
	}
	fg := full.Graph()
	fg.PruneBefore(cg.PrunedBelow())
	edgesEqual(t, cg, fg)

	// Root causes survive compaction: every retained event must answer
	// identically to the unbounded run.
	for _, io := range comp.Log().Snapshot() {
		if got, want := cg.RootCauses(io.ID), fg.RootCauses(io.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("RootCauses(%d) diverged:\n got %+v\nwant %+v", io.ID, got, want)
		}
	}
}

// TestRecoveryEqualsUninterrupted is the crash-restart differential: kill
// a compacting daemon after its last checkpoint, reopen from disk, replay
// the streams (the daemon skips what the checkpoint already covers), and
// require the recovered end state to be edge-identical to a run that never
// crashed.
func TestRecoveryEqualsUninterrupted(t *testing.T) {
	f := testFleet(120)
	ckpt := filepath.Join(t.TempDir(), "daemon.ckpt")
	opts := func() Options {
		return Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(),
			CompactEvery: 64, CheckpointPath: ckpt}
	}

	// First incarnation: ingest everything, checkpointing as it goes, then
	// "crash" (drop the daemon; only the checkpoint file survives).
	first, err := New(opts())
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, first, f)
	if first.Graph().PrunedBelow() == 0 {
		t.Fatal("first incarnation never compacted; differential is vacuous")
	}

	// Second incarnation recovers from the checkpoint mid-stream.
	second, err := New(opts())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := second.Log().TotalAppended(), first.Log().TotalAppended(); got >= want {
		t.Fatalf("checkpoint not mid-stream: recovered %d of %d events", got, want)
	}
	runDaemon(t, second, f)

	// Uninterrupted control run with identical compaction cadence.
	control, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(), CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, control, f)

	if got, want := second.Log().TotalAppended(), control.Log().TotalAppended(); got != want {
		t.Fatalf("recovered run merged %d events, control %d", got, want)
	}
	if !reflect.DeepEqual(second.Log().Snapshot(), control.Log().Snapshot()) {
		t.Fatal("retained windows diverge after recovery")
	}
	sg, cg := second.Graph(), control.Graph()
	if sg.PrunedBelow() != cg.PrunedBelow() {
		t.Fatalf("prune floors diverge: %d vs %d", sg.PrunedBelow(), cg.PrunedBelow())
	}
	edgesEqual(t, sg, cg)
	for _, io := range control.Log().Snapshot() {
		if got, want := sg.RootCauses(io.ID), cg.RootCauses(io.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("RootCauses(%d) diverged after recovery:\n got %+v\nwant %+v", io.ID, got, want)
		}
	}
	if !reflect.DeepEqual(second.Positions(), control.Positions()) {
		t.Fatalf("stream positions diverge: %v vs %v", second.Positions(), control.Positions())
	}
}

// TestRecoveryFromFinalCheckpoint: recovering a checkpoint written after
// the streams ended (via explicit Compact) and replaying yields the same
// graph with zero re-merged events.
func TestRecoveryFromFinalCheckpoint(t *testing.T) {
	f := testFleet(40)
	ckpt := filepath.Join(t.TempDir(), "daemon.ckpt")
	first, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(), CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, first, f)
	if err := first.Compact(); err != nil {
		t.Fatal(err)
	}

	second, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(), CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if second.Log().TotalAppended() != first.Log().TotalAppended() {
		t.Fatalf("final checkpoint lost events: %d vs %d",
			second.Log().TotalAppended(), first.Log().TotalAppended())
	}
	runDaemon(t, second, f) // replays fully into skips
	if got := second.Log().TotalAppended(); got != first.Log().TotalAppended() {
		t.Fatalf("replay after full checkpoint appended events: %d vs %d",
			got, first.Log().TotalAppended())
	}
	edgesEqual(t, second.Graph(), first.Graph())
}

// TestForcedSkipFold injects the evict-without-fold bug: compaction that
// drops events before folding their edges into the cached graph must be
// caught by the compaction-vs-full differential.
func TestForcedSkipFold(t *testing.T) {
	f := testFleet(120)
	buggy, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(), CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	buggy.skipFold = true
	runDaemon(t, buggy, f)

	full, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, full, f)

	bg := buggy.Graph()
	fg := full.Graph()
	fg.PruneBefore(bg.PrunedBelow())
	lost := 0
	for _, e := range fg.Edges() {
		if !bg.HasEdge(e.From, e.To) {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("skip-fold bug produced a complete graph; the differential oracle has no teeth")
	}
}

// TestDaemonNoLookbackerNeverEvicts: a strategy without a look-back bound
// has no sound compaction floor; the daemon must keep everything.
func TestDaemonNoLookbackerNeverEvicts(t *testing.T) {
	f := testFleet(30)
	d, err := New(Options{Strategy: opaqueStrategy{testStrategy()}, Resolve: f.Resolver(),
		CompactEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d, f)
	if got := d.Log().Len(); uint64(got) != d.Log().TotalAppended() {
		t.Fatalf("unbounded strategy lost events: window %d of %d", got, d.Log().TotalAppended())
	}
}

// opaqueStrategy hides the Lookbacker implementation of its base.
type opaqueStrategy struct{ base hbr.Rules }

func (o opaqueStrategy) Name() string                      { return "opaque" }
func (o opaqueStrategy) Infer(ios []capture.IO) *hbg.Graph { return o.base.Infer(ios) }

// TestDaemonLaterNearerSendReplacesEdge drives the stale-edge shape through
// the daemon: r1's recv is folded (a compaction tick) while r0's first send
// is the only candidate, then r0's second, nearer send arrives. The graph
// must re-match the recv, not keep both sends as its parents.
func TestDaemonLaterNearerSendReplacesEdge(t *testing.T) {
	f := Fleet{Routers: 2}
	at := func(ms int) netsim.VirtualTime {
		return netsim.VirtualTime(time.Second + time.Duration(ms)*time.Millisecond)
	}
	msg := capture.IO{Proto: route.ProtoBGP, Prefix: wavePrefix(0), NextHop: f.Addr(0),
		Attrs: route.BGPAttrs{LocalPref: 100, ASPath: []uint32{65000}}}
	line := func(router int, typ capture.Type, peer int, ms int) []byte {
		io := msg
		io.Router, io.Type, io.PeerAddr, io.Time = f.RouterName(router), typ, f.Addr(peer), at(ms)
		return append(ciscolog.AppendLine(nil, io), '\n')
	}
	logs := [][]byte{
		append(line(0, capture.SendAdvert, 1, 0), line(0, capture.SendAdvert, 1, 150)...),
		line(1, capture.RecvAdvert, 0, 100),
	}
	d, err := New(Options{Strategy: hbr.Rules{}, Resolve: f.Resolver(), CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	streams := []*Stream{d.Register(f.RouterName(0)), d.Register(f.RouterName(1))}
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := streams[i].Consume(bytes.NewReader(logs[i])); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	edgesEqual(t, g, hbr.Rules{}.Infer(d.Log().Snapshot()))
	if want := []hbg.Edge{{From: 3, To: 2}}; !reflect.DeepEqual(g.Edges(), want) {
		t.Fatalf("edges = %v, want %v", g.Edges(), want)
	}
}
