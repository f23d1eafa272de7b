package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// runTrace drives a deterministic pseudo-random workload — nested
// scheduling, same-tick ties, cancellations, far-future timers — on the
// given kernel and returns the byte-exact firing trace.
func runTrace(t *testing.T, k schedKernel, seed int64) string {
	t.Helper()
	s := newSchedulerOn(seed, k)
	rng := rand.New(rand.NewSource(seed))
	var trace []byte
	var pendingTimers []*Timer
	id := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		myID := id
		id++
		return func() {
			trace = append(trace, []byte(fmt.Sprintf("%d@%d;", myID, s.Now()))...)
			if depth >= 4 {
				return
			}
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				var d time.Duration
				switch rng.Intn(5) {
				case 0:
					d = 0 // same instant, later seq
				case 1:
					d = time.Duration(rng.Intn(1000)) // sub-tick
				case 2:
					d = time.Duration(rng.Intn(10)) * time.Millisecond
				case 3:
					d = time.Duration(rng.Intn(300)) * time.Second // higher wheel levels
				case 4:
					d = time.Duration(rng.Intn(48)) * time.Hour // level 3 / overflow range
				}
				tm := s.After(d, spawn(depth+1))
				if rng.Intn(4) == 0 {
					pendingTimers = append(pendingTimers, tm)
				}
			}
			// Cancel a random previously retained timer now and then; the
			// rng stream is kernel-independent so both kernels cancel the
			// same logical events.
			if len(pendingTimers) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(pendingTimers))
				pendingTimers[i].Stop()
				pendingTimers = append(pendingTimers[:i], pendingTimers[i+1:]...)
			}
		}
	}
	for i := 0; i < 30; i++ {
		s.At(VirtualTime(rng.Intn(5_000_000)), spawn(0))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return string(trace)
}

// kernels names and builds each scheduler kernel.
var kernels = []struct {
	name string
	make func() schedKernel
}{
	{"wheel", func() schedKernel { return newWheelKernel() }},
	{"heap", func() schedKernel { return &heapKernel{} }},
}

// Differential: the wheel and the heap kernels must fire the exact same
// (time, seq) order for identical seeded workloads.
func TestKernelsFireIdenticalTraces(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		wheel := runTrace(t, newWheelKernel(), seed)
		heapK := runTrace(t, &heapKernel{}, seed)
		if wheel != heapK {
			t.Fatalf("seed %d: kernels diverged\nwheel: %.200s\nheap:  %.200s", seed, wheel, heapK)
		}
		if wheel == "" {
			t.Fatalf("seed %d: empty trace", seed)
		}
	}
}

// The existing netsim unit tests run on the wheel; this
// re-runs the core semantics on the heap kernel so the reference stays honest.
func TestHeapKernelSemantics(t *testing.T) {
	s := newSchedulerOn(1, &heapKernel{})
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	tm := s.At(20, func() { got = append(got, 2) })
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop semantics broken on heap kernel")
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v", got)
	}
}

// Regression for the Timer.Stop leak: N schedule/cancel cycles with a
// bounded live set must leave the heap bounded by the live count, not by N.
// Before the lazy sweep the heap held every dead entry until its virtual
// time arrived (10k here).
func TestHeapSweepBoundsQueue(t *testing.T) {
	hk := &heapKernel{}
	s := newSchedulerOn(1, hk)
	var live []*Timer
	for i := 0; i < 50; i++ {
		live = append(live, s.After(time.Hour, func() {}))
	}
	maxLen := 0
	for i := 0; i < 10_000; i++ {
		tm := s.After(time.Hour, func() {})
		tm.Stop()
		if len(hk.q) > maxLen {
			maxLen = len(hk.q)
		}
	}
	// Sweep triggers at dead > len/2, so the heap never exceeds
	// 2*live + O(1).
	if bound := 2*(len(live)+1) + 4; maxLen > bound {
		t.Fatalf("heap grew to %d entries with %d live timers (bound %d): dead entries not swept", maxLen, len(live), bound)
	}
	if got := s.Pending(); got != len(live) {
		t.Fatalf("Pending = %d, want %d", got, len(live))
	}
}

// The wheel must drop canceled events immediately: after N schedule/cancel
// cycles the kernel holds zero events and zero occupancy.
func TestWheelCancelRemovesImmediately(t *testing.T) {
	s := NewScheduler(1)
	wk := s.k.(*wheelKernel)
	for i := 0; i < 10_000; i++ {
		d := time.Duration(i%977) * time.Millisecond
		tm := s.After(d, func() {})
		if !tm.Stop() {
			t.Fatal("Stop reported not pending")
		}
	}
	if wk.count != 0 {
		t.Fatalf("wheel count = %d after cancel-all", wk.count)
	}
	for l := 0; l < wheelLevels; l++ {
		for wd, v := range wk.occ[l] {
			if v != 0 {
				t.Fatalf("level %d occupancy word %d nonzero after cancel-all", l, wd)
			}
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d", s.Pending())
	}
}

// Far-future events (beyond the top wheel level) take the overflow path and
// still fire in order; canceling one removes it from the overflow list.
func TestWheelOverflowFarFuture(t *testing.T) {
	s := NewScheduler(1)
	wk := s.k.(*wheelKernel)
	var got []string
	horizon := time.Duration(1<<(tickBits+wheelLevels*wheelBits)) * time.Nanosecond
	s.After(70*horizon/10, func() { got = append(got, "far2") })
	far := s.After(60*horizon/10, func() { got = append(got, "dropped") })
	s.After(55*horizon/10, func() { got = append(got, "far1") })
	s.After(time.Millisecond, func() { got = append(got, "near") })
	if wk.overflow.head == nil {
		t.Fatal("far-future events did not reach the overflow list")
	}
	if !far.Stop() {
		t.Fatal("Stop on overflow event reported not pending")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"near", "far1", "far2"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Race: Timer.Stop from another goroutine while the scheduler is firing.
// An event must never both fire and report a successful Stop, and the run
// must finish cleanly. Run with -race.
func TestConcurrentStopVsFire(t *testing.T) {
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			s := newSchedulerOn(1, k.make())
			const n = 4000
			fired := make([]bool, n) // written only by the run goroutine
			timers := make([]*Timer, n)
			for i := 0; i < n; i++ {
				i := i
				timers[i] = s.After(time.Duration(i%50)*time.Millisecond, func() { fired[i] = true })
			}
			stopped := make([]bool, n)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						stopped[i] = timers[i].Stop()
					}
				}
			}()
			if err := s.Run(); err != nil {
				t.Error(err)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if fired[i] && stopped[i] {
					t.Fatalf("timer %d both fired and was stopped", i)
				}
			}
		})
	}
}

// RunUntil must leave un-fired due-buffer and wheel state consistent across
// a deadline boundary, then resume correctly.
func TestWheelRunUntilResume(t *testing.T) {
	s := NewScheduler(1)
	var got []VirtualTime
	for _, at := range []VirtualTime{5, 15, Duration(3 * time.Millisecond), Duration(2 * time.Hour)} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || s.Pending() != 3 {
		t.Fatalf("after RunUntil(10): got %v pending %d", got, s.Pending())
	}
	// Scheduling between drained-but-unfired events must respect order.
	s.At(12, func() { got = append(got, 12) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []VirtualTime{5, 12, 15, Duration(3 * time.Millisecond), Duration(2 * time.Hour)}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func BenchmarkKernelChurn(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			s := newSchedulerOn(1, k.make())
			const depth = 1024
			watchdogs := make([]*Timer, depth)
			var fired int
			var tick func(i int) func()
			tick = func(i int) func() {
				return func() {
					if watchdogs[i] != nil {
						watchdogs[i].Stop()
					}
					watchdogs[i] = s.After(10*time.Second, func() {})
					fired++
					if fired < b.N {
						s.After(time.Duration(1+i%7)*time.Millisecond, tick(i))
					}
				}
			}
			for i := 0; i < depth; i++ {
				s.After(time.Duration(i%97)*time.Millisecond, tick(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
