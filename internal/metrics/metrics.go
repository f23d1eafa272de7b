// Package metrics is a lightweight counter/timer layer for the hot paths
// of the control-plane verification loop: inference cache hits and misses,
// incremental versus full inference time, data-plane walks executed and
// deduplicated, and per-policy verification latency. The paper's position
// is that verification runs *continuously inside* the control plane (§5),
// which makes these paths worth instrumenting permanently rather than only
// in benchmarks.
//
// Everything is safe for concurrent use and nil-tolerant: a nil *Registry
// hands out nil instruments whose methods are no-ops, so instrumented code
// never needs a nil check at the call site.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-adjusted integer. The zero value is usable; a
// nil Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Timer accumulates durations: observation count and total. The zero value
// is usable; a nil Timer discards observations.
type Timer struct {
	count atomic.Int64
	total atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.total.Add(int64(d))
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the summed duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.total.Load())
}

// Mean returns the average observation, 0 when empty.
func (t *Timer) Mean() time.Duration {
	n := t.Count()
	if n == 0 {
		return 0
	}
	return t.Total() / time.Duration(n)
}

// Gauge tracks a current value and its high-water mark — e.g. the in-flight
// window occupancy of the dist dispatch scheduler. The zero value is usable;
// a nil Gauge discards updates.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current value, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the last value set; 0 for a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark; 0 for a nil gauge.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Registry hands out named counters, timers, and gauges. Instruments are
// created on first use and shared by name. A nil Registry hands out nil
// instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	timers   map[string]*Timer
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}, timers: map[string]*Timer{}, gauges: map[string]*Gauge{}, hists: map[string]*Histogram{}}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Timer returns the named timer, creating it if needed.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// String renders the registry as "name=value ..." sorted by name, with
// timers shown as count/total/mean. Empty instruments are included so the
// output shape is stable.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.timers)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.timers {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	timers := make(map[string]*Timer, len(r.timers))
	for n, t := range r.timers {
		timers[n] = t
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		if c, ok := counters[n]; ok {
			fmt.Fprintf(&b, "%s=%d", n, c.Value())
		} else if t, ok := timers[n]; ok {
			fmt.Fprintf(&b, "%s=%dx/%v(avg %v)", n, t.Count(),
				t.Total().Round(time.Microsecond), t.Mean().Round(time.Microsecond))
		} else if g, ok := gauges[n]; ok {
			fmt.Fprintf(&b, "%s=%d(max %d)", n, g.Value(), g.Max())
		} else if h, ok := hists[n]; ok {
			fmt.Fprintf(&b, "%s=p50:%v/p95:%v/p99:%v(n=%d)", n,
				h.Quantile(0.50).Round(time.Microsecond),
				h.Quantile(0.95).Round(time.Microsecond),
				h.Quantile(0.99).Round(time.Microsecond), h.Count())
		}
	}
	return b.String()
}
