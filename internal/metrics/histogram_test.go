package metrics

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// Quantiles over a known uniform population must land within one bucket
// width (12.5% relative error) of the exact order statistic.
func TestHistogramQuantileAccuracy(t *testing.T) {
	h := &Histogram{}
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	for _, tc := range []struct {
		q     float64
		exact time.Duration
	}{
		{0.50, 5000 * time.Microsecond},
		{0.95, 9500 * time.Microsecond},
		{0.99, 9900 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		lo := time.Duration(float64(tc.exact) * 0.85)
		hi := time.Duration(float64(tc.exact) * 1.15)
		if got < lo || got > hi {
			t.Errorf("Quantile(%v) = %v, want within [%v, %v]", tc.q, got, lo, hi)
		}
	}
	if time.Duration(h.max.Load()) != n*time.Microsecond {
		t.Errorf("Max = %v, want %v", time.Duration(h.max.Load()), n*time.Microsecond)
	}
	// The reported p100 must never exceed the true max even though its
	// bucket's midpoint would.
	if got := h.Quantile(1.0); got > time.Duration(h.max.Load()) {
		t.Errorf("Quantile(1.0) = %v exceeds Max %v", got, time.Duration(h.max.Load()))
	}
}

// Every index must round-trip through histValue into the same bucket, and
// indices must be monotone in the value — otherwise quantiles would be
// misordered.
func TestHistogramBucketMonotone(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		v := histValue(i)
		if got := histIndex(v); got != i {
			t.Fatalf("histIndex(histValue(%d)) = %d", i, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 100, 1e3, 1e6, 1e9, 1e12, 1e15, 1e18} {
		i := histIndex(v)
		if i < prev {
			t.Fatalf("histIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
	if histIndex(-5) != 0 {
		t.Errorf("negative values should clamp to bucket 0")
	}
}

func TestHistogramZeroAndNil(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Count() != 0 || h.Total() != 0 || h.Quantile(0.99) != 0 {
		t.Errorf("nil histogram should report zeros")
	}
	z := &Histogram{}
	if z.Quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", z.Quantile(0.5))
	}
}

// Concurrent observers must not lose counts (run under -race in CI).
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Intn(1e6)) * time.Nanosecond)
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
}

// Registry integration: histograms show up in String so
// Pipeline.Summary() and verifyd surface them without extra plumbing.
func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("serve.query.latency")
	if h == nil {
		t.Fatal("registry returned nil histogram")
	}
	if r.Histogram("serve.query.latency") != h {
		t.Fatal("histogram not shared by name")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := r.String()
	if !strings.Contains(s, "serve.query.latency=p50:") {
		t.Errorf("String missing histogram rendering: %q", s)
	}

	var nilReg *Registry
	if nilReg.Histogram("x") != nil {
		t.Error("nil registry should hand out nil histogram")
	}
	nilReg.Histogram("x").Observe(time.Second) // no-op, must not panic
	_ = fmt.Sprintf("%v", nilReg.String())
}
