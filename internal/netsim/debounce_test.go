package netsim

import (
	"reflect"
	"testing"
	"time"
)

type firing struct {
	at     VirtualTime
	key    string
	causes []uint64
}

// recorder builds a debouncer on s whose flushes are appended to *got.
func recorder(s *Scheduler, delay time.Duration, got *[]firing) *Debounce[string] {
	return NewDebounce(s, delay, func(k string, causes []uint64) {
		*got = append(*got, firing{s.Now(), k, causes})
	})
}

func runAll(t *testing.T, s *Scheduler) {
	t.Helper()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

const ms = VirtualTime(time.Millisecond)

// The first Add schedules one flush delay later; later Adds only append
// their causes, in order, and schedule nothing. The first Add's causes are
// copied, so the caller may reuse its slice.
func TestDebounceCoalesces(t *testing.T) {
	s := NewScheduler(1)
	var got []firing
	d := recorder(s, 4*time.Millisecond, &got)
	first := []uint64{1}
	d.Add("p", first)
	first[0] = 99
	s.After(time.Millisecond, func() { d.Add("p", []uint64{2, 3}) })
	s.After(2*time.Millisecond, func() {
		d.Add("p", nil)
		d.Add("p", []uint64{4})
	})
	runAll(t, s)
	want := []firing{{4 * ms, "p", []uint64{1, 2, 3, 4}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("firings = %v, want %v", got, want)
	}
	// Two helper events plus exactly one flush.
	if s.Processed != 3 {
		t.Fatalf("processed %d events, want 3", s.Processed)
	}
}

// After a key fires, the next Add re-arms it, including an Add from the
// flush itself.
func TestDebounceRearmsAfterFiring(t *testing.T) {
	s := NewScheduler(1)
	var got []firing
	var d *Debounce[string]
	d = NewDebounce(s, 4*time.Millisecond, func(k string, causes []uint64) {
		got = append(got, firing{s.Now(), k, causes})
		if len(got) == 1 {
			d.Add(k, []uint64{2})
		}
	})
	d.Add("p", []uint64{1})
	s.After(20*time.Millisecond, func() { d.Add("p", []uint64{3}) })
	runAll(t, s)
	want := []firing{
		{4 * ms, "p", []uint64{1}},
		{8 * ms, "p", []uint64{2}},
		{24 * ms, "p", []uint64{3}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("firings = %v, want %v", got, want)
	}
}

// Keys are independent: each has its own pending causes and its own
// deadline.
func TestDebounceKeysIndependent(t *testing.T) {
	s := NewScheduler(1)
	var got []firing
	d := recorder(s, 4*time.Millisecond, &got)
	d.Add("a", []uint64{1})
	s.After(time.Millisecond, func() { d.Add("b", []uint64{2}) })
	s.After(2*time.Millisecond, func() { d.Add("a", []uint64{3}) })
	s.After(6*time.Millisecond, func() { d.Add("a", []uint64{4}) })
	runAll(t, s)
	want := []firing{
		{4 * ms, "a", []uint64{1, 3}},
		{5 * ms, "b", []uint64{2}},
		{10 * ms, "a", []uint64{4}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("firings = %v, want %v", got, want)
	}
}

// Keys due at the same instant fire in the order of their first Add, never
// in map order: capture logs depend on it. Repeated, since a map-ordered
// implementation could pass once by chance.
func TestDebounceSameInstantFiresInFirstAddOrder(t *testing.T) {
	keys := []string{"m", "c", "x", "a", "q", "b", "z", "e"}
	for round := 0; round < 20; round++ {
		s := NewScheduler(1)
		var got []firing
		d := recorder(s, time.Millisecond, &got)
		for i, k := range keys {
			d.Add(k, []uint64{uint64(i)})
		}
		d.Add("c", []uint64{100})
		runAll(t, s)
		if len(got) != len(keys) {
			t.Fatalf("%d firings, want %d", len(got), len(keys))
		}
		for i, f := range got {
			if f.key != keys[i] || f.at != ms {
				t.Fatalf("firing %d = %v, want key %q at %v", i, f, keys[i], ms)
			}
		}
		if !reflect.DeepEqual(got[1].causes, []uint64{1, 100}) {
			t.Fatalf("c's causes = %v", got[1].causes)
		}
	}
}
