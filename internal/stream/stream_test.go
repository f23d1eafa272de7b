package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
	return hbr.Rules{Window: 100 * time.Millisecond, ConfigWindow: 500 * time.Millisecond}
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

// Where a run or a batch ends must not show in what the daemon builds, so
// the merge tests run at each bufferCap in bufferCaps and each CompactEvery
// in compactEverys: one event at a time, odd sizes, and the production
// sizes.
var (
	bufferCaps    = []int{1, 7, defaultBufferCap}
	compactEverys = []uint64{1, 7, 4096}
)

// shortFirstLogs renders f's logs with r0's cut short at an odd line count,
// so one stream ends mid-batch while the others go on.
func shortFirstLogs(t *testing.T, f Fleet) (routers []string, logs [][]byte) {
	t.Helper()
	for i := 0; i < f.Routers; i++ {
		b, err := io.ReadAll(f.Reader(i))
		if err != nil {
			t.Fatal(err)
		}
		routers, logs = append(routers, f.RouterName(i)), append(logs, b)
	}
	lines := bytes.SplitAfter(logs[0], []byte("\n"))
	logs[0] = slices.Concat(lines[:len(lines)*3/4+1]...)
	return routers, logs
}

// TestMergeDeterministic: the merged capture order must be a pure function
// of the stream contents, independent of goroutine scheduling, of what a
// stream may buffer and of where compaction cuts the merger's runs. Each
// daemon's retained window must be the tail of one reference order, and it
// must compact exactly once per CompactEvery events.
func TestMergeDeterministic(t *testing.T) {
	f := testFleet(500)
	routers, logs := shortFirstLogs(t, f)
	run := func(bufferCap int, every uint64) (*Daemon, *metrics.Registry) {
		reg := metrics.NewRegistry()
		d, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(),
			CompactEvery: every, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		d.bufferCap = bufferCap // small caps keep every reader blocked on backpressure most of the time
		consumeLogs(t, d, routers, logs)
		return d, reg
	}
	ref, _ := run(defaultBufferCap, 0)
	want := ref.Log().Snapshot()
	if n := bytes.Count(slices.Concat(logs...), []byte("\n")); len(want) != n {
		t.Fatalf("merged %d events, the logs hold %d", len(want), n)
	}
	for i := 1; i < len(want); i++ {
		if want[i].Time < want[i-1].Time {
			t.Fatalf("merge emitted out of time order at %d: %v after %v", i, want[i].Time, want[i-1].Time)
		}
	}
	for _, bufferCap := range bufferCaps {
		for _, every := range append([]uint64{0}, compactEverys...) {
			t.Run(fmt.Sprintf("buffer%d/every%d", bufferCap, every), func(t *testing.T) {
				d, reg := run(bufferCap, every)
				got := d.Log().Snapshot()
				if total := d.Log().TotalAppended(); total != uint64(len(want)) {
					t.Fatalf("merged %d events, the reference %d", total, len(want))
				}
				if !reflect.DeepEqual(got, want[len(want)-len(got):]) {
					t.Fatal("the retained window is not the tail of the reference merge order")
				}
				var compactions int64
				if every > 0 {
					compactions = int64(uint64(len(want)) / every)
				}
				if n := reg.Counter("stream.compactions").Value(); n != compactions {
					t.Fatalf("%d compactions, want %d", n, compactions)
				}
			})
		}
	}
}

// TestCompactionMatchesFull: a compacting daemon must end with the same
// graph as an unbounded daemon, modulo the prune floor, at every buffer size
// and compaction cadence.
func TestCompactionMatchesFull(t *testing.T) {
	f := testFleet(500)
	routers, logs := shortFirstLogs(t, f)
	for _, bufferCap := range bufferCaps {
		for _, every := range compactEverys {
			t.Run(fmt.Sprintf("buffer%d/every%d", bufferCap, every), func(t *testing.T) {
				reg := metrics.NewRegistry()
				comp, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(),
					CompactEvery: every, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				comp.bufferCap = bufferCap
				consumeLogs(t, comp, routers, logs)
				full, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver()})
				if err != nil {
					t.Fatal(err)
				}
				consumeLogs(t, full, routers, logs)

				cg := comp.Graph()
				if cg.PrunedBelow() == 0 {
					t.Fatalf("compaction never pruned (evicted=%d); windows too wide for the trace",
						reg.Counter("stream.compact.evicted").Value())
				}
				if comp.Log().Len() >= full.Log().Len() {
					t.Fatalf("compaction did not shrink the window: %d vs %d", comp.Log().Len(), full.Log().Len())
				}
				if got, want := reg.Counter("stream.compactions").Value(), int64(comp.Log().TotalAppended()/every); got != want {
					t.Fatalf("%d compactions, want %d", got, want)
				}
				fg := full.Graph()
				fg.PruneBefore(cg.PrunedBelow())
				edgesEqual(t, cg, fg)

				// Root causes survive compaction: every retained event must
				// answer identically to the unbounded run.
				for _, io := range comp.Log().Snapshot() {
					if got, want := cg.RootCauses(io.ID), fg.RootCauses(io.ID); !reflect.DeepEqual(got, want) {
						t.Fatalf("RootCauses(%d) diverged:\n got %+v\nwant %+v", io.ID, got, want)
					}
				}
			})
		}
	}
}

// TestCompactionKeepsHeapFlat is the always-on daemon's flat-memory claim:
// over an 8-router fleet of ~120 K events, windowed compaction keeps the
// retained window under half the stream and the post-GC heap within 2x of
// the same run over a quarter of the events, while the CompactEvery 0
// control keeps every event. A compaction that evicts nothing fails the
// window bound and the heap bound.
func TestCompactionKeepsHeapFlat(t *testing.T) {
	const events, compactEvery = 120_000, 4096
	type result struct {
		events      uint64
		window      int
		compactions int64
		heapBytes   uint64
	}
	run := func(events int, every uint64) result {
		f := Fleet{Routers: 8}
		f.Waves = (events + f.EventsPerWave() - 1) / f.EventsPerWave()
		reg := metrics.NewRegistry()
		d, err := New(Options{Strategy: testStrategy(), Metrics: reg, Resolve: f.Resolver(), CompactEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		runDaemon(t, d, f)
		// Post-GC heap while the daemon (log window + folded graph) is the
		// only thing this run keeps alive.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return result{events: d.Log().TotalAppended(), window: d.Log().Len(),
			compactions: reg.Counter("stream.compactions").Value(), heapBytes: ms.HeapAlloc}
	}

	quarter := run(events/4, compactEvery)
	full := run(events, compactEvery)
	if full.compactions == 0 {
		t.Fatal("the daemon never compacted; the flat-memory claim is vacuous")
	}
	if full.window*2 >= int(full.events) {
		t.Errorf("compaction retained %d of %d events; the window is not bounded", full.window, full.events)
	}
	mb := func(v uint64) float64 { return float64(v) / (1 << 20) }
	if ratio := float64(full.heapBytes) / float64(quarter.heapBytes); ratio > 2 {
		t.Errorf("heap after %d events is %.2fx that after %d (%.1f MB vs %.1f MB), want <= 2x",
			full.events, ratio, quarter.events, mb(full.heapBytes), mb(quarter.heapBytes))
	}
	if control := run(events, 0); control.window != int(control.events) {
		t.Errorf("the CompactEvery 0 control dropped events: window %d of %d", control.window, control.events)
	}
	t.Logf("%d events: window %d after %d compactions, heap %.1f MB (%.1f MB at %d events)",
		full.events, full.window, full.compactions, mb(full.heapBytes), mb(quarter.heapBytes), quarter.events)
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

// TestCompactDuringIngestionKeepsPositionsOnLog: Compact may run at any
// moment of ingestion. Each checkpoint it writes must resume every stream
// exactly where the log it holds ends — the positions sum to its last ID —
// or a restart would skip the events in between. Each log reaches the
// daemon in eight parts, the next one only once a checkpoint has been
// checked mid-stream, so the merger and Compact overlap however fast the
// merge is.
func TestCompactDuringIngestionKeepsPositionsOnLog(t *testing.T) {
	const parts = 8
	f := testFleet(400)
	path := filepath.Join(t.TempDir(), "daemon.ckpt")
	d, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(), CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	gates := make([]chan struct{}, parts-1)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	routers, readers := make([]string, f.Routers), make([]io.Reader, f.Routers)
	for i := range readers {
		log, err := io.ReadAll(f.Reader(i))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(log, []byte("\n"))
		chunks := []io.Reader{}
		for p := 0; p < parts; p++ {
			part := bytes.NewReader(slices.Concat(lines[p*len(lines)/parts : (p+1)*len(lines)/parts]...))
			if p == 0 {
				chunks = append(chunks, part)
			} else {
				chunks = append(chunks, gatedReader{gates[p-1], part})
			}
		}
		routers[i], readers[i] = f.RouterName(i), io.MultiReader(chunks...)
	}

	stop := make(chan struct{})
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		checked := 0
		defer func() { // a failed check must not leave the readers waiting
			for _, g := range gates[min(checked, len(gates)):] {
				close(g)
			}
		}()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.Compact(); err != nil {
				t.Error(err)
				return
			}
			data, err := os.ReadFile(path)
			if errors.Is(err, fs.ErrNotExist) {
				continue // nothing merged yet: Compact wrote no file
			}
			if err != nil {
				t.Error(err)
				return
			}
			positions, _, cp, err := decodeEnvelope(data)
			if err != nil {
				t.Error(err)
				return
			}
			sum := 0
			for _, p := range positions {
				sum += p
			}
			if uint64(sum) != cp.LastID {
				t.Errorf("checkpoint positions %v sum to %d, its log ends at %d", positions, sum, cp.LastID)
				return
			}
			if cp.LastID > 0 && cp.LastID < uint64(f.TotalEvents()) && checked < len(gates) {
				close(gates[checked])
				checked++
			}
		}
	}()
	consumeReaders(t, d, routers, readers)
	close(stop)
	<-compactorDone
	if got := d.Log().TotalAppended(); got != uint64(f.TotalEvents()) {
		t.Fatalf("merged %d events, fleet generates %d", got, f.TotalEvents())
	}
}

// gatedReader reads r once gate is closed.
type gatedReader struct {
	gate <-chan struct{}
	r    io.Reader
}

func (g gatedReader) Read(p []byte) (int, error) {
	<-g.gate
	return g.r.Read(p)
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

// TestForcedSkipFold: a daemon that compacts every 64 events keeps every
// edge an unbounded daemon infers above its pruning floor, because
// compaction folds events into the cached graph before evicting them. The
// skip-fold mutation in .github/mutate.go evicts without folding, which
// loses edges here.
func TestForcedSkipFold(t *testing.T) {
	f := testFleet(120)
	bounded, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(), CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, bounded, f)

	full, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, full, f)

	bg := bounded.Graph()
	if bg.PrunedBelow() == 0 {
		t.Fatal("the bounded daemon never compacted")
	}
	fg := full.Graph()
	fg.PruneBefore(bg.PrunedBelow())
	lost := 0
	for _, e := range fg.Edges() {
		if !slices.Contains(bg.Parents(e.To), e.From) {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("compaction lost %d of %d edges", lost, fg.EdgeCount())
	}
}

// TestZeroStrategyCompactsAtDefaultRetention: Options' zero Strategy is
// hbr.Rules{}, so a daemon configured with neither strategy nor slack
// compacts at its 60 s look-back plus twice the default 1 s slack behind the
// newest event — everything older is evicted, nothing newer — and the folded
// graph equals a full inference pruned at that floor.
func TestZeroStrategyCompactsAtDefaultRetention(t *testing.T) {
	f := Fleet{Routers: 4, Waves: 200, Gap: 500 * time.Millisecond} // ~100 s of virtual time
	d, err := New(Options{Resolve: f.Resolver(), CompactEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d, f)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	control, err := New(Options{Resolve: f.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, control, f)

	all, win := control.Log().Snapshot(), d.Log().View()
	floor := all[len(all)-1].Time - netsim.VirtualTime(hbr.Rules{}.LookbackWindow()+2*hbr.DefaultSkewSlack)
	n := len(all) - win.Len()
	if n == 0 || all[n-1].Time >= floor || win.At(0).Time < floor || win.At(0).ID != all[n].ID {
		t.Fatalf("evicted %d of %d events; want exactly those observed before %v", n, len(all), floor)
	}
	g := d.Graph()
	if g.PrunedBelow() != all[n].ID {
		t.Fatalf("graph pruned below %d, want %d", g.PrunedBelow(), all[n].ID)
	}
	want := hbr.Rules{}.Infer(all)
	want.PruneBefore(g.PrunedBelow())
	edgesEqual(t, g, want)
}

// TestDaemonSendMergedAfterReceiveFillsIt drives a receive ahead of its
// send through the daemon: r0's clock runs slow, so the merge releases r1's
// receive first and a compaction tick folds it with no send to pair. r0's
// send, merged after, must give it exactly that one edge, and r0's second
// send is left for the next receive.
func TestDaemonSendMergedAfterReceiveFillsIt(t *testing.T) {
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
		append(line(0, capture.SendAdvert, 1, 150), line(0, capture.SendAdvert, 1, 300)...),
		line(1, capture.RecvAdvert, 0, 100),
	}
	reg := metrics.NewRegistry()
	d, err := New(Options{Strategy: hbr.Rules{}, Resolve: f.Resolver(), CompactEvery: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	consumeLogs(t, d, []string{f.RouterName(0), f.RouterName(1)}, logs)
	if n := reg.Counter("stream.compactions").Value(); n != 3 {
		t.Fatalf("%d compactions, want one per event", n)
	}
	g := d.Graph()
	edgesEqual(t, g, hbr.Rules{}.Infer(d.Log().Snapshot()))
	if want := []hbg.Edge{{From: 2, To: 1}}; !reflect.DeepEqual(g.Edges(), want) {
		t.Fatalf("edges = %v, want %v", g.Edges(), want)
	}
}

// consumeLogs registers one stream per router, consumes each router's log
// concurrently, and waits for the merge.
func consumeLogs(t *testing.T, d *Daemon, routers []string, logs [][]byte) {
	t.Helper()
	readers := make([]io.Reader, len(logs))
	for i, log := range logs {
		readers[i] = bytes.NewReader(log)
	}
	consumeReaders(t, d, routers, readers)
}

// consumeReaders is consumeLogs over readers.
func consumeReaders(t *testing.T, d *Daemon, routers []string, readers []io.Reader) {
	t.Helper()
	streams := make([]*Stream, len(routers))
	for i, r := range routers {
		streams[i] = d.Register(r)
	}
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := streams[i].Consume(readers[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestParsedLinkDownOpensEpoch: a link's log line names only its interface.
// With the daemon's Neighbor resolving it, the parsed link-down opens the
// adjacency's next epoch at both ends, so a RIP advert and an OSPF LSA lost
// with the link are left in the old one, and what is sent after the link
// comes back pairs with its own receive, with no desync. Without Neighbor
// the LSA lost is a desync and the re-sent advert's receive takes the lost
// advert, which has its key.
func TestParsedLinkDownOpensEpoch(t *testing.T) {
	f := Fleet{Routers: 2}
	at := func(ms int) netsim.VirtualTime {
		return netsim.VirtualTime(time.Second + time.Duration(ms)*time.Millisecond)
	}
	line := func(router int, typ capture.Type, ms int) []byte {
		io := capture.IO{Router: f.RouterName(router), Type: typ, Proto: route.ProtoRIP, Prefix: wavePrefix(0),
			PeerAddr: f.Addr(1 - router), Time: at(ms)}
		if typ == capture.LinkDown || typ == capture.LinkUp {
			io = capture.IO{Router: io.Router, Type: typ, Detail: "eth-" + f.RouterName(1-router), Time: io.Time}
		}
		return append(ciscolog.AppendLine(nil, io), '\n')
	}
	lsa := func(router int, typ capture.Type, seq, ms int) []byte {
		io := capture.IO{Router: f.RouterName(router), Type: typ, Proto: route.ProtoOSPF,
			Detail: fmt.Sprintf("LSA origin=10.0.0.0 seq=%d links=1 stubs=0", seq), PeerAddr: f.Addr(1 - router), Time: at(ms)}
		return append(ciscolog.AppendLine(nil, io), '\n')
	}
	logs := [][]byte{
		slices.Concat(line(0, capture.SendAdvert, 100), lsa(0, capture.SendAdvert, 1, 110),
			line(0, capture.SendAdvert, 200), lsa(0, capture.SendAdvert, 2, 200), // lost with the link
			line(0, capture.LinkDown, 201), line(0, capture.LinkUp, 300),
			line(0, capture.SendAdvert, 301), lsa(0, capture.SendAdvert, 3, 310)),
		slices.Concat(line(1, capture.RecvAdvert, 102), lsa(1, capture.RecvAdvert, 1, 112),
			line(1, capture.LinkDown, 201), line(1, capture.LinkUp, 300),
			line(1, capture.RecvAdvert, 303), lsa(1, capture.RecvAdvert, 3, 312)),
	}
	neighbor := func(router, iface string) string { return strings.TrimPrefix(iface, "eth-") }
	for _, c := range []struct {
		neighbor ciscolog.Neighbor
		sendMs   int   // the send the advert received at 303 ms pairs with
		desync   int64 // passed over: the LSA lost, when it shares a channel with seq 3
	}{{neighbor, 301, 0}, {nil, 200, 1}} {
		reg := metrics.NewRegistry()
		d, err := New(Options{Strategy: hbr.Rules{}, Resolve: f.Resolver(), Neighbor: c.neighbor, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		consumeLogs(t, d, []string{f.RouterName(0), f.RouterName(1)}, logs)
		g := d.Graph()
		id := func(router string, proto route.Protocol, ms int) uint64 {
			for _, io := range d.Log().Snapshot() {
				if io.Router == router && io.Proto == proto && io.Time == at(ms) {
					return io.ID
				}
			}
			t.Fatalf("no %v event of %s at %d ms", proto, router, ms)
			return 0
		}
		if got, want := g.Parents(id("r1", route.ProtoRIP, 303)), []uint64{id("r0", route.ProtoRIP, c.sendMs)}; !slices.Equal(got, want) {
			t.Fatalf("neighbor %v: advert's parents %v, want the send at %d ms %v", c.neighbor != nil, got, c.sendMs, want)
		}
		if got, want := g.Parents(id("r1", route.ProtoOSPF, 312)), []uint64{id("r0", route.ProtoOSPF, 310)}; !slices.Equal(got, want) {
			t.Fatalf("neighbor %v: LSA's parents %v, want %v", c.neighbor != nil, got, want)
		}
		if n := reg.Counter("hbr.channel_desync").Value(); n != c.desync {
			t.Fatalf("neighbor %v: %d desyncs, want %d", c.neighbor != nil, n, c.desync)
		}
	}
}

// TestCompactionBoundsChannelTable: r2's sends to r3, which logs nothing,
// never meet a receive, and r0's send whose receive line r1 lost is passed
// over by the next receive. Compaction forgets what falls below its floor,
// so the table a checkpoint carries stays the size of the retained window —
// four times the waves give less than twice the bytes, where an unbounded
// table would grow fourfold — and the lost line costs one desync, not a
// wedged channel: the compacting daemon's graph is the unbounded run's.
func TestCompactionBoundsChannelTable(t *testing.T) {
	run := func(waves, every int) (*Daemon, *hbg.Graph, int64) {
		f := testFleet(waves)
		routers := []string{f.RouterName(0), f.RouterName(1), f.RouterName(2)}
		logs := make([][]byte, len(routers))
		for i := range logs {
			b, err := io.ReadAll(f.Reader(i))
			if err != nil {
				t.Fatal(err)
			}
			logs[i] = b
		}
		lines := bytes.SplitAfter(logs[1], []byte("\n"))
		logs[1] = slices.Concat(slices.Delete(lines, 3*5, 3*5+1)...) // wave 5's receive
		reg := metrics.NewRegistry()
		d, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(),
			CompactEvery: uint64(every), Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		consumeLogs(t, d, routers, logs)
		g := d.Graph()
		return d, g, reg.Counter("hbr.channel_desync").Value()
	}
	small, _, _ := run(200, 64)
	big, cg, desync := run(800, 64)
	_, g, fullDesync := run(800, 0)
	sb, bb := len(small.inc.AppendChannels(nil)), len(big.inc.AppendChannels(nil))
	if bb >= 2*sb {
		t.Fatalf("channel table: %d bytes after 200 waves, %d after 800", sb, bb)
	}
	if desync != 1 || fullDesync != 1 {
		t.Fatalf("desyncs: %d compacting, %d unbounded, want 1", desync, fullDesync)
	}
	g.PruneBefore(cg.PrunedBelow())
	edgesEqual(t, cg, g)
}
