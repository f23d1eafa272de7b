// The container/heap reference kernel — the original scheduler queue, kept
// in the tests as a differential oracle for the timer wheel (wheel_test.go
// runs both through newSchedulerOn). One deliberate improvement over the
// original: cancellation
// used to only mark events dead, leaving them in the heap until their time
// arrived, so periodic protocol timers that re-arm every tick accumulated
// garbage linearly. The kernel now sweeps lazily whenever dead entries
// exceed half the queue, bounding the heap at twice the live count.

package netsim

import "container/heap"

// newSchedulerOn returns a scheduler on the given kernel instead of the wheel.
func newSchedulerOn(seed int64, k schedKernel) *Scheduler {
	s := NewScheduler(seed)
	s.k = k
	return s
}

type eventQueue []*event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return eventLess(q[i], q[j]) }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type heapKernel struct {
	q    eventQueue
	dead int
}

func (h *heapKernel) schedule(ev *event) { heap.Push(&h.q, ev) }

func (h *heapKernel) cancel(ev *event) {
	ev.state = evDead
	h.dead++
	if h.dead > len(h.q)/2 {
		h.sweep()
	}
}

// sweep compacts the queue down to live events and re-heapifies. O(n), but
// amortized O(1) per cancel since it only runs when half the queue is dead.
func (h *heapKernel) sweep() {
	live := h.q[:0]
	for _, ev := range h.q {
		if ev.state != evDead {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(h.q); i++ {
		h.q[i] = nil
	}
	h.q = live
	h.dead = 0
	heap.Init(&h.q)
}

func (h *heapKernel) drainDead() {
	for len(h.q) > 0 && h.q[0].state == evDead {
		heap.Pop(&h.q)
		h.dead--
	}
}

func (h *heapKernel) peek() (VirtualTime, bool) {
	h.drainDead()
	if len(h.q) == 0 {
		return 0, false
	}
	return h.q[0].at, true
}

func (h *heapKernel) pop() *event {
	h.drainDead()
	if len(h.q) == 0 {
		return nil
	}
	ev := heap.Pop(&h.q).(*event)
	ev.state = evFired
	return ev
}

func (h *heapKernel) live() int { return len(h.q) - h.dead }
