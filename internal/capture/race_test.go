package capture

import (
	"sync"
	"sync/atomic"
	"testing"

	"hbverify/internal/netsim"
)

// TestLogConcurrentRecordAndRead drives one shared log from several
// recorders while readers sweep it — the access pattern the parallel
// verifier and the distributed fleet create. Run under -race.
func TestLogConcurrentRecordAndRead(t *testing.T) {
	log := NewLog()
	sched := netsim.NewScheduler(1)

	var delivered atomic.Int64
	log.Subscribe(func(IO) { delivered.Add(1) })

	const (
		writers = 4
		readers = 3
		perW    = 500
	)
	var wWg, rWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wWg.Add(1)
		go func() {
			defer wWg.Done()
			rec := NewRecorder(log, "r"+string(rune('0'+w)), sched, nil)
			for i := 0; i < perW; i++ {
				rec.Record(IO{Type: RecvAdvert})
			}
		}()
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		rWg.Add(1)
		go func() {
			defer rWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := log.Len()
				all := log.All()
				if len(all) < n {
					t.Errorf("All() returned %d < Len() %d", len(all), n)
					return
				}
				if snap := log.Snapshot(); len(snap) < n {
					t.Errorf("Snapshot() returned %d < Len() %d", len(snap), n)
					return
				}
				if v := log.View(); v.Len() < n || v.Len() > 0 && v.At(v.Len()-1).ID != uint64(v.Len()) {
					t.Errorf("View() of %d events against Len() %d", v.Len(), n)
					return
				}
				if n > 0 {
					if _, ok := log.ByID(uint64(n)); !ok {
						t.Errorf("ByID(%d) missing despite Len()=%d", n, n)
						return
					}
				}
			}
		}()
	}
	wWg.Wait()
	close(stop)
	rWg.Wait()

	if got := log.Len(); got != writers*perW {
		t.Fatalf("log.Len() = %d, want %d", got, writers*perW)
	}
	if got := delivered.Load(); got != int64(writers*perW) {
		t.Fatalf("subscriber saw %d I/Os, want %d", got, writers*perW)
	}
	// IDs are dense and append-ordered.
	for i, io := range log.All() {
		if io.ID != uint64(i+1) {
			t.Fatalf("I/O %d has ID %d, want %d", i, io.ID, i+1)
		}
	}
}

// TestLogConcurrentAppendBatch drives batch appends from several
// goroutines while readers take zero-copy snapshots. Run under -race.
func TestLogConcurrentAppendBatch(t *testing.T) {
	log := NewLog()
	var delivered atomic.Int64
	log.Subscribe(func(IO) { delivered.Add(1) })

	const (
		writers = 4
		batches = 50
		perB    = 20
	)
	var wWg, rWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wWg.Add(1)
		go func() {
			defer wWg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]IO, perB)
				for i := range batch {
					batch[i] = IO{Type: RecvAdvert}
				}
				stored := log.AppendBatch(batch)
				for i := 1; i < stored.Len(); i++ {
					if stored.At(i).ID != stored.At(i-1).ID+1 {
						t.Errorf("batch IDs not dense: %d after %d", stored.At(i).ID, stored.At(i-1).ID)
						return
					}
				}
			}
		}()
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		rWg.Add(1)
		go func() {
			defer rWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := log.Len()
				if snap := log.Snapshot(); len(snap) < n {
					t.Errorf("Snapshot() returned %d < Len() %d", len(snap), n)
					return
				}
			}
		}()
	}
	wWg.Wait()
	close(stop)
	rWg.Wait()

	want := int64(writers * batches * perB)
	if got := int64(log.Len()); got != want {
		t.Fatalf("log.Len() = %d, want %d", got, want)
	}
	if got := delivered.Load(); got != want {
		t.Fatalf("subscriber saw %d I/Os, want %d", got, want)
	}
}
