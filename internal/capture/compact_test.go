package capture

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbverify/internal/netsim"
)

func appendN(l *Log, n int, at netsim.VirtualTime) {
	batch := make([]IO, n)
	for i := range batch {
		batch[i] = IO{Type: RecvAdvert, Time: at}
	}
	l.AppendBatch(batch)
}

func TestCompactBefore(t *testing.T) {
	l := NewLog()
	appendN(l, 10, 100)

	if got := l.CompactBefore(1); got != 0 {
		t.Fatalf("CompactBefore(1) evicted %d, want 0", got)
	}
	if got := l.CompactBefore(5); got != 4 {
		t.Fatalf("CompactBefore(5) evicted %d, want 4", got)
	}
	if l.Len() != 6 || l.FirstID() != 5 || l.TotalAppended() != 10 {
		t.Fatalf("after compaction: len=%d first=%d total=%d", l.Len(), l.FirstID(), l.TotalAppended())
	}
	if _, ok := byID(l, 4); ok {
		t.Fatal("ByID(4) found a compacted I/O")
	}
	if io, ok := byID(l, 5); !ok || io.ID != 5 {
		t.Fatalf("ByID(5) = %+v %v", io, ok)
	}
	if io, ok := byID(l, 10); !ok || io.ID != 10 {
		t.Fatalf("ByID(10) = %+v %v", io, ok)
	}
	if snap := l.Snapshot(); len(snap) != 6 || snap[0].ID != 5 {
		t.Fatalf("snapshot = len %d first %d", len(snap), snap[0].ID)
	}
	// Re-compacting below the floor is a no-op.
	if got := l.CompactBefore(3); got != 0 {
		t.Fatalf("CompactBefore(3) evicted %d, want 0", got)
	}
}

func TestCompactToEmpty(t *testing.T) {
	l := NewLog()
	appendN(l, 4, 7)
	if got := l.CompactBefore(99); got != 4 {
		t.Fatalf("evicted %d, want 4", got)
	}
	if l.Len() != 0 || l.FirstID() != 5 || l.TotalAppended() != 4 {
		t.Fatalf("empty window: len=%d first=%d total=%d", l.Len(), l.FirstID(), l.TotalAppended())
	}
	if snap := l.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot of empty window has %d entries", len(snap))
	}
	if got := l.CompactBefore(99); got != 0 {
		t.Fatal("compacting an empty window evicted something")
	}
	// Appends resume with dense IDs after total eviction.
	appendN(l, 2, 9)
	if io, ok := byID(l, 5); !ok || io.ID != 5 {
		t.Fatalf("post-eviction append: ByID(5) = %+v %v", io, ok)
	}
	if l.Len() != 2 || l.FirstID() != 5 {
		t.Fatalf("post-eviction window: len=%d first=%d", l.Len(), l.FirstID())
	}
}

func TestRestoreLog(t *testing.T) {
	l := NewLog()
	appendN(l, 6, 3)
	l.CompactBefore(3)
	window := l.Snapshot()

	r, err := RestoreLog(window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 4 || r.FirstID() != 3 || r.TotalAppended() != 6 {
		t.Fatalf("restored: len=%d first=%d total=%d", r.Len(), r.FirstID(), r.TotalAppended())
	}
	appendN(r, 1, 4)
	if io, ok := byID(r, 7); !ok || io.ID != 7 {
		t.Fatalf("restored log did not resume IDs: %+v %v", io, ok)
	}

	// A watermark past the retained tail would punch an ID hole: rejected.
	if _, err := RestoreLog(window, 11); err == nil {
		t.Fatal("gap-creating restore accepted")
	}

	// Empty window with a watermark restores a fully-compacted log.
	r3, err := RestoreLog(nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Len() != 0 || r3.FirstID() != 9 {
		t.Fatalf("empty restore: len=%d first=%d", r3.Len(), r3.FirstID())
	}

	// Non-dense windows are rejected.
	bad := []IO{{ID: 3}, {ID: 5}}
	if _, err := RestoreLog(bad, 0); err == nil {
		t.Fatal("non-dense restore window accepted")
	}
}

// checkWindow fails unless v holds exactly IDs first, first+1, ... in order.
func checkWindow(t *testing.T, what string, v View, first uint64) {
	t.Helper()
	for i := 0; i < v.Len(); i++ {
		if got := v.At(i).ID; got != first+uint64(i) {
			t.Fatalf("%s: event %d has ID %d, want %d", what, i, got, first+uint64(i))
		}
	}
}

// TestCompactionRacingIngestion drives appenders, a compactor and readers
// concurrently; run under -race. Invariants: every view is dense, a view
// taken before later appends and compactions still reads what it read, the
// window always spans [FirstID, TotalAppended], and nothing panics.
func TestCompactionRacingIngestion(t *testing.T) {
	l := NewLog()
	const writers, perW = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				l.AppendBatch([]IO{{Type: RecvAdvert}, {Type: FIBInstall}})
			}
		}()
	}
	var cWg sync.WaitGroup
	reader := func(compact bool) {
		defer cWg.Done()
		var prev View
		var prevFirst uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if total := l.TotalAppended(); compact && total > 50 {
				l.CompactBefore(total - 50)
			}
			v := l.View()
			if v.Len() == 0 {
				continue
			}
			first := v.At(0).ID
			for i := 1; i < v.Len(); i++ {
				if v.At(i).ID != first+uint64(i) {
					t.Errorf("view not dense: %d after %d", v.At(i).ID, v.At(i-1).ID)
					return
				}
			}
			for i := 0; i < prev.Len(); i++ {
				if prev.At(i).ID != prevFirst+uint64(i) {
					t.Errorf("an earlier view's event %d now has ID %d, want %d", i, prev.At(i).ID, prevFirst+uint64(i))
					return
				}
			}
			prev, prevFirst = v, first
		}
	}
	cWg.Add(3)
	go reader(true)
	go reader(false)
	go reader(false)
	wg.Wait()
	close(stop)
	cWg.Wait()

	if got := l.TotalAppended(); got != writers*perW*2 {
		t.Fatalf("total appended = %d, want %d", got, writers*perW*2)
	}
	l.CompactBefore(l.TotalAppended() + 1)
	if l.Len() != 0 {
		t.Fatalf("final compaction left %d entries", l.Len())
	}
}

// TestCompactLeavesRoomToRefill: a log that keeps a window is appended the
// events it dropped without moving one, views taken before keep reading
// what they read, and a log that evicts everything keeps no segment behind.
func TestCompactLeavesRoomToRefill(t *testing.T) {
	l := NewLog()
	appendN(l, 100, 1)
	old := l.View()
	const drop = 40
	if got := l.CompactBefore(drop + 1); got != drop {
		t.Fatalf("evicted %d, want %d", got, drop)
	}
	kept := l.View()
	for i := 0; i < drop; i++ {
		l.AppendBatch([]IO{{Type: SendAdvert, Time: 2}})
	}
	after := l.View()
	if after.Len() != 100 || after.At(0) != kept.At(0) {
		t.Fatalf("appending the %d dropped events moved the window (len %d)", drop, after.Len())
	}
	if old.Len() != 100 || old.At(99).Type != RecvAdvert {
		t.Fatalf("view taken before the compaction changed: len %d", old.Len())
	}
	checkWindow(t, "view taken before the compaction", old, 1)
	if kept.Len() != 60 {
		t.Fatalf("view taken before the appends has %d events, want 60", kept.Len())
	}
	checkWindow(t, "view taken before the appends", kept, drop+1)
	checkWindow(t, "window", after, drop+1)

	l.CompactBefore(l.TotalAppended() + 1)
	l.mu.Lock()
	n, segs := l.n, len(l.segs)
	l.mu.Unlock()
	if n != 0 || segs != 0 {
		t.Fatalf("a fully evicted log holds %d events in %d segments, want none", n, segs)
	}
}

// TestSegmentBoundaries walks the log's layout across segment edges: where
// each operation leaves the segments and the floor, and that the window
// still reads as dense IDs from FirstID, through views and Filter alike.
func TestSegmentBoundaries(t *testing.T) {
	appendEach := func(l *Log, n int) {
		for i := 0; i < n; i++ {
			l.AppendBatch([]IO{{Type: RIBInstall}})
		}
	}
	for _, tc := range []struct {
		name        string
		build       func(t *testing.T) *Log
		segs, floor int
		first, n    int
	}{
		{"append fills a segment", func(*testing.T) *Log { l := NewLog(); appendEach(l, segLen); return l }, 1, 0, 1, segLen},
		{"append across a boundary", func(*testing.T) *Log { l := NewLog(); appendEach(l, segLen+1); return l }, 2, 0, 1, segLen + 1},
		{"compact at a boundary", func(*testing.T) *Log {
			l := NewLog()
			appendN(l, 3*segLen, 1)
			l.CompactBefore(segLen + 1)
			return l
		}, 2, 0, segLen + 1, 2 * segLen},
		{"compact one short of a boundary", func(*testing.T) *Log {
			l := NewLog()
			appendN(l, 3*segLen, 1)
			l.CompactBefore(segLen)
			return l
		}, 3, segLen - 1, segLen, 2*segLen + 1},
		{"compact one past a boundary", func(*testing.T) *Log {
			l := NewLog()
			appendN(l, 3*segLen, 1)
			l.CompactBefore(segLen + 2)
			return l
		}, 2, 1, segLen + 2, 2*segLen - 1},
		{"evict all, then append", func(*testing.T) *Log {
			l := NewLog()
			appendN(l, segLen+5, 1)
			l.CompactBefore(l.TotalAppended() + 1)
			appendEach(l, 3)
			return l
		}, 1, 0, segLen + 6, 3},
		{"AppendBatch straddling a segment", func(t *testing.T) *Log {
			l := NewLog()
			appendEach(l, segLen-3)
			stored := l.AppendBatch(make([]IO, 7))
			if stored.Len() != 7 || stored.At(2) != l.View().At(segLen-1) || stored.At(3) != l.View().At(segLen) {
				t.Fatal("the batch's view is not the log's storage")
			}
			checkWindow(t, "stored batch", stored, segLen-2)
			return l
		}, 2, 0, 1, segLen + 4},
		{"RestoreLog round trip", func(t *testing.T) *Log {
			l := NewLog()
			appendN(l, 2*segLen+5, 1)
			l.CompactBefore(101)
			r, err := RestoreLog(l.Snapshot(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Snapshot(), l.Snapshot()) || r.TotalAppended() != l.TotalAppended() {
				t.Fatal("restored window differs from the original")
			}
			return r
		}, 2, 0, 101, 2*segLen - 95},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.build(t)
			l.mu.Lock()
			segs, floor := len(l.segs), l.floor
			l.mu.Unlock()
			if segs != tc.segs || floor != tc.floor || l.Len() != tc.n || l.FirstID() != uint64(tc.first) {
				t.Fatalf("layout: %d segments, floor %d, %d events from ID %d; want %d, %d, %d from %d",
					segs, floor, l.Len(), l.FirstID(), tc.segs, tc.floor, tc.n, tc.first)
			}
			v := l.View()
			checkWindow(t, "window", v, uint64(tc.first))
			for _, i := range []int{0, tc.n / 2, tc.n - 1} {
				if io, ok := byID(l, uint64(tc.first+i)); !ok || io.ID != v.At(i).ID {
					t.Fatalf("ByID(%d) = %d, %v", tc.first+i, io.ID, ok)
				}
			}
			if sub := v.Slice(1, tc.n); sub.Len() != tc.n-1 || sub.At(0) != v.At(1) {
				t.Fatal("a sub-view does not share the window")
			}
			// The next append lands after the window, in place.
			head := v.At(0)
			l.AppendBatch([]IO{{Type: FIBInstall}})
			if w := l.View(); w.At(0) != head || w.At(tc.n).ID != uint64(tc.first+tc.n) {
				t.Fatal("an append moved the window or misnumbered the new event")
			}
		})
	}
}

// TestViewOutlivesAppendsAndCompaction: a view taken before N appends and a
// compaction that evicts everything it covers still reads its original
// events, in place.
func TestViewOutlivesAppendsAndCompaction(t *testing.T) {
	l := NewLog()
	batch := make([]IO, 2*segLen+10)
	for i := range batch {
		batch[i] = IO{Router: "r" + string(rune('0'+i%7)), Type: Type(i % 12), Time: netsim.VirtualTime(i)}
	}
	l.AppendBatch(batch)
	v := l.View()
	sub := v.Slice(segLen-2, segLen+3)
	want, wantSub, head := v.Flatten(), sub.Flatten(), v.At(0)
	for round := 0; round < 3; round++ {
		appendN(l, segLen+17, netsim.VirtualTime(1000+round))
		l.CompactBefore(l.TotalAppended() - 5)
	}
	if got := v.Flatten(); !reflect.DeepEqual(got, want) || v.At(0) != head {
		t.Fatal("the view no longer reads the events it was taken over")
	}
	if !reflect.DeepEqual(sub.Flatten(), wantSub) {
		t.Fatal("the sub-view no longer reads its events")
	}
	if l.FirstID() <= uint64(len(batch)) {
		t.Fatalf("the compactions kept ID %d; the test wants the view's events evicted", l.FirstID())
	}
}

// TestEvictedSegmentsAreReleased: every fully evicted segment is collected
// once nothing reads it, and not while a view taken over it is live.
func TestEvictedSegmentsAreReleased(t *testing.T) {
	l := NewLog()
	appendN(l, 4*segLen, 1)
	var freed [4]atomic.Bool
	l.mu.Lock()
	for k := range l.segs {
		runtime.SetFinalizer(&l.segs[k][0], func(*IO) { freed[k].Store(true) })
	}
	l.mu.Unlock()
	settle := func(done func() bool) {
		for i := 0; i < 50 && !done(); i++ {
			runtime.GC()
			time.Sleep(10 * time.Millisecond) // finalizers run on their own goroutine
		}
	}

	pin := l.View().Slice(segLen+1, segLen+2)
	if got := l.CompactBefore(3*segLen + 1); got != 3*segLen {
		t.Fatalf("evicted %d, want three segments' worth", got)
	}
	settle(func() bool { return freed[1].Load() })
	if freed[1].Load() {
		t.Fatal("a segment a live view reads was collected")
	}
	if pin.At(0).ID != segLen+2 {
		t.Fatalf("the pinned view reads ID %d, want %d", pin.At(0).ID, segLen+2)
	}
	pin = View{}
	settle(func() bool { return freed[0].Load() && freed[1].Load() && freed[2].Load() })
	for k := 0; k < 3; k++ {
		if !freed[k].Load() {
			t.Errorf("fully evicted segment %d was not collected", k)
		}
	}
	if freed[3].Load() {
		t.Error("the retained segment was collected")
	}
	runtime.KeepAlive(l)
}
