// Package netsim provides a deterministic discrete-event simulation kernel.
//
// All control-plane activity in this repository runs on a single virtual
// clock owned by a Scheduler. Events fire in (time, sequence) order, so a
// simulation with a fixed seed is fully reproducible: the same inputs always
// produce the same interleaving of route advertisements, RIB installs, and
// FIB updates. Determinism is what lets the test suite assert exact
// happens-before graphs and lets experiment E10 explore message-order
// permutations purely through seed sweeps.
//
// The Scheduler's priority queue is a hierarchical timer wheel with O(1)
// schedule and pop, which pays for itself on the deep queues of large
// topologies. No protocol cancels a timer, so a scheduled event has no
// handle and nothing removes it before it fires. The package's tests keep
// the original binary heap as a differential reference that must fire the
// exact same (time, seq) order.
//
// Virtual time is an int64 nanosecond count (VirtualTime). Routers never read
// the host clock; per-router "wall clock" skew is layered on top by
// ClockModel so that captured timestamps are imperfect in the same way real
// router logs are.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// VirtualTime is a point on the simulation clock, in nanoseconds since the
// start of the run.
type VirtualTime int64

// Duration converts a standard library duration to virtual nanoseconds.
func Duration(d time.Duration) VirtualTime { return VirtualTime(d.Nanoseconds()) }

// Add returns t shifted by d.
func (t VirtualTime) Add(d time.Duration) VirtualTime { return t + Duration(d) }

// Sub returns the duration between t and u.
func (t VirtualTime) Sub(u VirtualTime) time.Duration { return time.Duration(t - u) }

// String formats the virtual time as a duration offset, e.g. "25.004s".
func (t VirtualTime) String() string { return time.Duration(t).String() }

// event is a scheduled callback. Events are ordered by time, then by the
// sequence number assigned at scheduling time, which makes simultaneous
// events fire in schedule order. next threads the event into a wheel slot
// (or the overflow list).
type event struct {
	at   VirtualTime
	seq  uint64
	fn   func()
	next *event
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// schedKernel is the scheduler's priority queue: the timer wheel, or in this
// package's tests the heap reference. All methods are called with the
// scheduler mutex held.
type schedKernel interface {
	schedule(*event)
	peek() (VirtualTime, bool)
	pop() *event
}

// Scheduler is the discrete-event simulation kernel. The zero value is not
// usable; call NewScheduler.
type Scheduler struct {
	mu  sync.Mutex
	now VirtualTime
	seq uint64
	k   schedKernel
	rng *rand.Rand
	// Processed counts events that have fired; useful for run-length caps.
	Processed uint64
	// MaxEvents, when nonzero, aborts Run with ErrEventBudget after that
	// many events. It guards against protocol bugs that would otherwise
	// spin the simulation forever.
	MaxEvents uint64
}

// ErrEventBudget is returned by Run variants when MaxEvents is exhausted.
var ErrEventBudget = fmt.Errorf("netsim: event budget exhausted")

// NewScheduler returns a scheduler on the timer wheel whose internal
// randomness (used only by Jitter) is derived from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed)), k: &wheelKernel{}}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() VirtualTime { return s.now }

// Rand exposes the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// At schedules fn at absolute virtual time t. Scheduling in the past is
// clamped to the present: the event fires at Now.
func (s *Scheduler) At(t VirtualTime, fn func()) {
	if fn == nil {
		panic("netsim: nil event func")
	}
	s.mu.Lock()
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.k.schedule(&event{at: t, seq: s.seq, fn: fn})
	s.mu.Unlock()
}

// After schedules fn d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.At(s.now.Add(d), fn)
}

// Jitter returns a duration uniformly distributed in [base, base+spread).
// With spread <= 0 it returns base unchanged.
func (s *Scheduler) Jitter(base, spread time.Duration) time.Duration {
	if spread <= 0 {
		return base
	}
	return base + time.Duration(s.rng.Int63n(int64(spread)))
}

// Run fires events until the queue drains or the event budget is exhausted.
func (s *Scheduler) Run() error { return s.RunUntil(VirtualTime(1<<62 - 1)) }

// RunUntil fires events with time <= deadline. The virtual clock is left at
// the later of the last fired event and its current value; it never jumps to
// the deadline when the queue drains early.
func (s *Scheduler) RunUntil(deadline VirtualTime) error {
	s.mu.Lock()
	for {
		t, ok := s.k.peek()
		if !ok || t > deadline {
			break
		}
		ev := s.k.pop()
		s.now = ev.at
		s.Processed++
		s.mu.Unlock()
		ev.fn()
		s.mu.Lock()
		if s.MaxEvents > 0 && s.Processed >= s.MaxEvents {
			s.mu.Unlock()
			return ErrEventBudget
		}
	}
	s.mu.Unlock()
	return nil
}

// ClockModel maps virtual time to the wall clock a particular router would
// stamp on a log line: a constant skew plus bounded uniform jitter. Real
// routers are never perfectly synchronized, and the paper's timestamp
// strategy (§4.2) must cope with exactly this imperfection.
type ClockModel struct {
	Skew   time.Duration // constant offset from true virtual time
	Jitter time.Duration // maximum additional per-reading noise (uniform)
	rng    *rand.Rand
}

// NewClockModel builds a clock with the given skew and jitter. Readings are
// deterministic for a given seed.
func NewClockModel(skew, jitter time.Duration, seed int64) *ClockModel {
	return &ClockModel{Skew: skew, Jitter: jitter, rng: rand.New(rand.NewSource(seed))}
}

// Read returns the wall-clock the router observes at virtual time t.
func (c *ClockModel) Read(t VirtualTime) VirtualTime {
	if c == nil {
		return t
	}
	out := t.Add(c.Skew)
	if c.Jitter > 0 {
		out = out.Add(time.Duration(c.rng.Int63n(int64(c.Jitter))))
	}
	if out < 0 {
		out = 0
	}
	return out
}
