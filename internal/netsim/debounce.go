package netsim

import "time"

// Debounce coalesces per-key triggers into one delayed flush: the first Add
// for a key schedules flush delay later, and Adds before it fires only
// append their causes. The key is forgotten before flush runs, so a flush
// that triggers its own key arms a new one. Keys due at the same instant
// fire in the order of their first Add (the scheduler's sequence order),
// which keeps capture logs deterministic.
type Debounce[K comparable] struct {
	sched   *Scheduler
	delay   time.Duration
	flush   func(K, []uint64)
	pending map[K][]uint64
}

// NewDebounce builds a debouncer that runs flush(key, causes) on sched.
func NewDebounce[K comparable](sched *Scheduler, delay time.Duration, flush func(K, []uint64)) *Debounce[K] {
	return &Debounce[K]{sched: sched, delay: delay, flush: flush, pending: map[K][]uint64{}}
}

// Add records causes against k, scheduling k's flush if none is pending.
func (d *Debounce[K]) Add(k K, causes []uint64) {
	if pend, ok := d.pending[k]; ok {
		d.pending[k] = append(pend, causes...)
		return
	}
	d.pending[k] = append([]uint64(nil), causes...)
	d.sched.After(d.delay, func() {
		causes := d.pending[k]
		delete(d.pending, k)
		d.flush(k, causes)
	})
}
