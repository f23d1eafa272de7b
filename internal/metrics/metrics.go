// Package metrics is a lightweight counter/histogram layer for the hot paths
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

// Registry hands out named counters, gauges, and histograms. Instruments are
// created on first use and shared by name. A nil Registry hands out nil
// instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}, gauges: map[string]*Gauge{}, hists: map[string]*Histogram{}}
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

// Timer returns the named histogram, under the name the benchmark module
// (bench/) still reads; ROADMAP item 6 deletes it.
func (r *Registry) Timer(name string) *Histogram { return r.Histogram(name) }

// String renders the registry as "name=value ..." sorted by name, with
// histograms shown as quantiles and count. Empty instruments are included
// so the output shape is stable.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
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
