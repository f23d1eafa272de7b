package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Timer("y").Observe(time.Second)
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	if got := r.Timer("y").Count(); got != 0 {
		t.Fatalf("nil timer count = %d", got)
	}
	if r.String() != "" {
		t.Fatal("nil registry must render empty")
	}
}

func TestCountersAndTimers(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Counter("hits").Inc()
	if got := r.Counter("hits").Value(); got != 4 {
		t.Fatalf("hits = %d, want 4", got)
	}
	// A timer is the histogram of its name.
	tm := r.Timer("infer")
	if tm != r.Histogram("infer") {
		t.Fatal("Timer and Histogram hand out different instruments for one name")
	}
	tm.Observe(2 * time.Millisecond)
	tm.Observe(6 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 8*time.Millisecond {
		t.Fatalf("timer count=%d total=%v", tm.Count(), tm.Total())
	}
	s := r.String()
	if !strings.Contains(s, "hits=4") || !strings.Contains(s, "infer=p50:") || !strings.Contains(s, "(n=2)") {
		t.Fatalf("string = %q", s)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Timer("t").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("n = %d, want 8000", got)
	}
	if got := r.Timer("t").Count(); got != 8000 {
		t.Fatalf("t.count = %d, want 8000", got)
	}
	if got := r.Timer("t").Total(); got != 8000*time.Microsecond {
		t.Fatalf("t.total = %v, want 8ms", got)
	}
}
