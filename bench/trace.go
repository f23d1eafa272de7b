package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one traced call into a layer: a name, start and end in
// nanoseconds since the tracer was made, the span that caused it (-1 for
// an operation's root span) and the operation it belongs to.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: span just calls fn, so workloads have one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	stack []int // open spans of the driving goroutine
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp starts the next operation; spans opened until the following
// beginOp carry its id.
func (t *tracer) beginOp() {
	if t != nil {
		t.op++
	}
}

// span records fn as a child of the driving goroutine's innermost open
// span. Only the driving goroutine may call it.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.open(name, parent)
	t.stack = append(t.stack, id)
	fn()
	t.stack = t.stack[:len(t.stack)-1]
	t.close(id)
}

// top is the driving goroutine's innermost open span, the parent to hand
// to goroutines it starts.
func (t *tracer) top() int {
	if t == nil || len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// spanUnder records fn under an explicit parent; safe from any goroutine.
func (t *tracer) spanUnder(parent int, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.open(name, parent)
	fn()
	t.close(id)
}

func (t *tracer) open(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Op: t.op, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// durationsMs returns the duration of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// stageSumRatio is, over every root span (one per operation), the time its
// direct children cover divided by its own duration: how much of the
// operation the layer spans account for. It is meaningful where the
// children of a root run one after another on the driving goroutine.
func (t *tracer) stageSumRatio() float64 {
	var covered, total int64
	for _, s := range t.spans {
		if s.Parent == -1 {
			total += s.End - s.Start
		} else if t.spans[s.Parent].Parent == -1 {
			covered += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
