// The container/heap reference kernel — the original scheduler queue, kept
// in the tests as a differential oracle for the timer wheel (wheel_test.go
// runs both through newSchedulerOn).

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

type heapKernel struct{ q eventQueue }

func (h *heapKernel) schedule(ev *event) { heap.Push(&h.q, ev) }

func (h *heapKernel) peek() (VirtualTime, bool) {
	if len(h.q) == 0 {
		return 0, false
	}
	return h.q[0].at, true
}

func (h *heapKernel) pop() *event {
	if len(h.q) == 0 {
		return nil
	}
	return heap.Pop(&h.q).(*event)
}
