package capture

import (
	"sync"
	"testing"

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
	if _, ok := l.ByID(4); ok {
		t.Fatal("ByID(4) found a compacted I/O")
	}
	if io, ok := l.ByID(5); !ok || io.ID != 5 {
		t.Fatalf("ByID(5) = %+v %v", io, ok)
	}
	if io, ok := l.ByID(10); !ok || io.ID != 10 {
		t.Fatalf("ByID(10) = %+v %v", io, ok)
	}
	if snap := l.Snapshot(); len(snap) != 6 || snap[0].ID != 5 {
		t.Fatalf("snapshot = len %d first %d", len(snap), snap[0].ID)
	}
	if obs := l.ObservedOrder(); len(obs) != 6 || obs[0].ID != 5 {
		t.Fatalf("observed = len %d first %d", len(obs), obs[0].ID)
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
	if io, ok := l.ByID(5); !ok || io.ID != 5 {
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
	window := l.All()

	r, err := RestoreLog(window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 4 || r.FirstID() != 3 || r.TotalAppended() != 6 {
		t.Fatalf("restored: len=%d first=%d total=%d", r.Len(), r.FirstID(), r.TotalAppended())
	}
	appendN(r, 1, 4)
	if io, ok := r.ByID(7); !ok || io.ID != 7 {
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

// TestSubscriberOrderUnderConcurrentAppend pins the ordered-dispatch fix:
// with appenders racing, subscribers must still observe every I/O in
// strictly increasing ID order. Pre-fix, delivery happened outside the
// mutex and two appenders could invert it.
func TestSubscriberOrderUnderConcurrentAppend(t *testing.T) {
	l := NewLog()
	var (
		seenMu sync.Mutex
		seen   []uint64
	)
	l.Subscribe(func(io IO) {
		seenMu.Lock()
		seen = append(seen, io.ID)
		seenMu.Unlock()
	})

	const writers, perW = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if w%2 == 0 {
					l.append(IO{Type: RecvAdvert})
				} else {
					l.AppendBatch([]IO{{Type: RecvAdvert}, {Type: RIBInstall}})
				}
			}
		}()
	}
	wg.Wait()

	want := writers / 2 * perW * 3
	if len(seen) != want {
		t.Fatalf("subscriber saw %d I/Os, want %d", len(seen), want)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("delivery out of ID order at %d: %d after %d", i, seen[i], seen[i-1])
		}
	}
}

// TestCompactionRacingIngestion drives appenders and a compactor
// concurrently; run under -race. Invariants: the window always spans
// [FirstID, TotalAppended], snapshots stay dense, and nothing panics.
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
	cWg.Add(1)
	go func() {
		defer cWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			total := l.TotalAppended()
			if total > 50 {
				l.CompactBefore(total - 50)
			}
			snap := l.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i].ID != snap[i-1].ID+1 {
					t.Errorf("snapshot not dense: %d after %d", snap[i].ID, snap[i-1].ID)
					return
				}
			}
		}
	}()
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
// events it dropped without its array being regrown, snapshots taken before
// keep reading what they read, and a log that evicts everything keeps no
// capacity behind.
func TestCompactLeavesRoomToRefill(t *testing.T) {
	l := NewLog()
	appendN(l, 100, 1)
	old := l.Snapshot()
	const drop = 40
	if got := l.CompactBefore(drop + 1); got != drop {
		t.Fatalf("evicted %d, want %d", got, drop)
	}
	kept := l.Snapshot()
	for i := 0; i < drop; i++ {
		l.Append(IO{Type: SendAdvert, Time: 2})
	}
	after := l.Snapshot()
	if len(after) != 100 || &after[0] != &kept[0] {
		t.Fatalf("appending the %d dropped events moved the window (len %d)", drop, len(after))
	}
	if len(old) != 100 || old[0].ID != 1 || old[99].ID != 100 || old[99].Type != RecvAdvert {
		t.Fatalf("snapshot taken before the compaction changed: len %d, IDs %d..%d", len(old), old[0].ID, old[len(old)-1].ID)
	}
	if len(kept) != 60 || kept[0].ID != drop+1 || kept[59].ID != 100 {
		t.Fatalf("snapshot taken before the appends changed: len %d, IDs %d..%d", len(kept), kept[0].ID, kept[len(kept)-1].ID)
	}
	for i, io := range after {
		if io.ID != uint64(drop+1+i) {
			t.Fatalf("window[%d] has ID %d, want %d", i, io.ID, drop+1+i)
		}
	}

	l.CompactBefore(l.TotalAppended() + 1)
	l.mu.Lock()
	n, c := len(l.ios), cap(l.ios)
	l.mu.Unlock()
	if n != 0 || c != 0 {
		t.Fatalf("a fully evicted log holds len %d cap %d, want 0 and 0", n, c)
	}
}
