// Run with -race: concurrent rule passes over one shared Index, and
// concurrent use of the Incremental cache, must be data-race free.

package hbr

import (
	"sync"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/metrics"
)

// TestConcurrentStrategiesSharedIndex runs rule passes with different
// windows (and direct index reads) over one shared Index from many
// goroutines, with the log large enough that each pass also shards
// internally.
func TestConcurrentStrategiesSharedIndex(t *testing.T) {
	ios := synthLog(11, 2*parallelMinEvents, 6)
	idx := newIndex(capture.ViewOf(ios), nil)
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, r := range []Rules{{}, {Window: 100 * time.Millisecond, ConfigWindow: 5 * time.Second}} {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				edges, _ := idx.runFrom(0, r.rule(idx))
				if g := idx.graph(edges); g.NodeCount() != len(ios) {
					t.Errorf("rules %+v: %d nodes, want %d", r, g.NodeCount(), len(ios))
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := int32(0); p < int32(idx.ios.Len()); p++ {
				idx.precedingOnRouter(p, time.Second, func(io *capture.IO) bool { return io.ID != 0 })
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentIncrementalInfer exercises the incremental cache from
// concurrent readers while the underlying strategies shard internally.
func TestConcurrentIncrementalInfer(t *testing.T) {
	ios := synthLog(13, 3*parallelMinEvents, 5)
	inc := NewIncremental(Rules{}, metrics.NewRegistry())
	grow := []int{len(ios) / 3, 2 * len(ios) / 3, len(ios)}
	for _, n := range grow {
		n := n
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if g := inc.Infer(ios[:n]); g.NodeCount() != n {
					t.Errorf("got %d nodes, want %d", g.NodeCount(), n)
				}
			}()
		}
		wg.Wait()
	}
}
