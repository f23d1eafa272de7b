package serve

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// TestQuerySubmitRacingShutdown races query submission against engine
// shutdown: every Query must return either a real answer or ErrClosed /
// ErrOverloaded — never hang, panic, or corrupt the flight table. Run
// under -race in CI.
func TestQuerySubmitRacingShutdown(t *testing.T) {
	w := startPaper(t)
	for round := 0; round < 5; round++ {
		e := w.engine(Config{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					// Rotate sources so some queries share plans and some
					// collide with the flight being torn down.
					src := []string{"r1", "r2", "r3"}[(g+i)%3]
					ans, err := e.Query(Reachability(src, w.pn.P))
					if err != nil {
						if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrOverloaded) {
							t.Errorf("unexpected error: %v", err)
						}
						if errors.Is(err, ErrClosed) {
							return
						}
						continue
					}
					_ = ans
				}
			}(g)
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		e.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("queries hung across shutdown")
		}
		// Close is idempotent and post-close queries fail fast.
		e.Close()
		if _, err := e.Query(Reachability("r1", w.pn.P)); !errors.Is(err, ErrClosed) {
			t.Errorf("post-close query: err = %v, want ErrClosed", err)
		}
	}
}

// TestConcurrentDistinctPlans floods the engine with queries over many
// distinct prefixes from several goroutines — flight-table churn, token
// recycling, and cache stores all racing. Run under -race.
func TestConcurrentDistinctPlans(t *testing.T) {
	w := startPaper(t)
	e := w.engine(Config{})
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				p := netip.PrefixFrom(netip.AddrFrom4([4]byte{70, byte(i % 8), 0, 0}), 24)
				if _, err := e.Query(Reachability("r1", p)); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.Stats(); st.Queries != 6*40 {
		t.Errorf("answered %d queries, want %d", st.Queries, 6*40)
	}
}
