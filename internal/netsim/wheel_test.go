package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// runTrace drives a deterministic pseudo-random workload — nested
// scheduling, same-tick ties, far-future timers — on the given kernel and
// returns the byte-exact firing trace.
func runTrace(t *testing.T, k schedKernel, seed int64) string {
	t.Helper()
	s := newSchedulerOn(seed, k)
	rng := rand.New(rand.NewSource(seed))
	var trace []byte
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
				s.After(d, spawn(depth+1))
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

// Differential: the wheel and the heap kernels must fire the exact same
// (time, seq) order for identical seeded workloads.
func TestKernelsFireIdenticalTraces(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		wheel := runTrace(t, &wheelKernel{}, seed)
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
	s.At(20, func() { got = append(got, 2) })
	s.At(10, func() { got = append(got, 4) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "[1 4 2 3]"; fmt.Sprint(got) != want {
		t.Fatalf("got %v, want %s", got, want)
	}
}

// Far-future events (beyond the top wheel level) take the overflow path and
// still fire in order. far2 lies beyond the horizon of the base that far1's
// refill sets, so it must go back onto the overflow list.
func TestWheelOverflowFarFuture(t *testing.T) {
	s := NewScheduler(1)
	wk := s.k.(*wheelKernel)
	var got []string
	horizon := time.Duration(1<<(tickBits+wheelLevels*wheelBits)) * time.Nanosecond
	s.After(70*horizon/10, func() { got = append(got, "far2") })
	s.After(55*horizon/10, func() { got = append(got, "far1") })
	s.After(time.Millisecond, func() { got = append(got, "near") })
	if wk.overflow.head == nil {
		t.Fatal("far-future events did not reach the overflow list")
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

// RunUntil must leave un-fired due-buffer and wheel state consistent across
// a deadline boundary, then resume correctly.
func TestWheelRunUntilResume(t *testing.T) {
	s := NewScheduler(1)
	wk := s.k.(*wheelKernel)
	var got []VirtualTime
	for _, at := range []VirtualTime{5, 15, Duration(3 * time.Millisecond), Duration(2 * time.Hour)} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || wk.count != 3 {
		t.Fatalf("after RunUntil(10): got %v, %d events left", got, wk.count)
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
