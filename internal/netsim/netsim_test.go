package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestSchedulerTiesFireInScheduleOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestSchedulerPastClampedToNow(t *testing.T) {
	s := NewScheduler(1)
	fired := VirtualTime(-1)
	s.At(100, func() {
		s.At(10, func() { fired = s.Now() }) // in the past
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", fired)
	}
}

func TestSchedulerAfterAndNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var ticks []VirtualTime
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		if len(ticks) < 5 {
			s.After(time.Millisecond, tick)
		}
	}
	s.After(time.Millisecond, tick)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks", len(ticks))
	}
	for i, tk := range ticks {
		want := VirtualTime(0).Add(time.Duration(i+1) * time.Millisecond)
		if tk != want {
			t.Fatalf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	s := NewScheduler(1)
	var got []VirtualTime
	for _, at := range []VirtualTime{5, 15, 25} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	if err := s.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || s.Now() != 15 {
		t.Fatalf("got %v now %v", got, s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 25 || s.Now() != 25 {
		t.Fatalf("got %v now %v after full run", got, s.Now())
	}
}

func TestEventBudget(t *testing.T) {
	s := NewScheduler(1)
	s.MaxEvents = 100
	var spin func()
	spin = func() { s.After(time.Microsecond, spin) }
	s.After(0, spin)
	if err := s.Run(); err != ErrEventBudget {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
	if s.Processed != 100 {
		t.Fatalf("processed %d", s.Processed)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []time.Duration {
		s := NewScheduler(seed)
		var out []time.Duration
		for i := 0; i < 50; i++ {
			out = append(out, s.Jitter(time.Millisecond, time.Millisecond))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestJitterBounds(t *testing.T) {
	s := NewScheduler(7)
	for i := 0; i < 1000; i++ {
		d := s.Jitter(10*time.Millisecond, 5*time.Millisecond)
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("jitter %v out of [10ms,15ms)", d)
		}
	}
	if d := s.Jitter(time.Second, 0); d != time.Second {
		t.Fatalf("zero-spread jitter = %v", d)
	}
}

func TestClockModelSkewAndJitter(t *testing.T) {
	c := NewClockModel(2*time.Second, 0, 1)
	if got := c.Read(0); got != Duration(2*time.Second) {
		t.Fatalf("skew-only read = %v", got)
	}
	cj := NewClockModel(0, time.Millisecond, 1)
	for i := 0; i < 100; i++ {
		r := cj.Read(1000)
		if r < 1000 || r >= VirtualTime(1000).Add(time.Millisecond) {
			t.Fatalf("jittered read %v out of range", r)
		}
	}
	var nilClock *ClockModel
	if nilClock.Read(55) != 55 {
		t.Fatal("nil clock should be identity")
	}
	neg := NewClockModel(-time.Hour, 0, 1)
	if neg.Read(5) != 0 {
		t.Fatal("negative readings must clamp to zero")
	}
}

// Property: for any batch of scheduled times, events fire in nondecreasing
// time order and the clock ends at the max scheduled time.
func TestQuickFiringOrderMonotone(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		s := NewScheduler(3)
		var fired []VirtualTime
		var max VirtualTime
		for _, o := range offsets {
			at := VirtualTime(o)
			if at > max {
				max = at
			}
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == max && len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil(d) never fires events scheduled after d.
func TestQuickRunUntilRespectsDeadline(t *testing.T) {
	f := func(offsets []uint16, deadline uint16) bool {
		s := NewScheduler(4)
		late := 0
		for _, o := range offsets {
			at := VirtualTime(o)
			s.At(at, func() {
				if s.Now() > VirtualTime(deadline) {
					late++
				}
			})
		}
		if err := s.RunUntil(VirtualTime(deadline)); err != nil {
			return false
		}
		return late == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeHelpers(t *testing.T) {
	a := VirtualTime(0).Add(25 * time.Second)
	b := a.Add(4 * time.Millisecond)
	if b.Sub(a) != 4*time.Millisecond {
		t.Fatalf("Sub = %v", b.Sub(a))
	}
	if a.String() != "25s" {
		t.Fatalf("String = %q", a.String())
	}
}

// Scheduling an event allocates the event and nothing else: no handle, and
// no wheel bookkeeping once the target slot exists.
func TestScheduleAllocatesOnce(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	at := Duration(time.Second)
	if n := testing.AllocsPerRun(1000, func() { s.At(at, fn) }); n != 1 {
		t.Fatalf("At allocates %v times per event, want 1", n)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.At(VirtualTime(i), func() {})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
