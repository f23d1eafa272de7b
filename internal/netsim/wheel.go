// The hierarchical timer wheel kernel. Virtual time is bucketed into
// ~1ms ticks (1<<tickBits ns); four levels of 256 slots cover the next
// 2^32 ticks (~52 virtual days), and anything farther sits on an overflow
// list until the wheels drain down to it. Schedule appends to a slot's
// singly-linked list and pop takes the head of the due buffer, both O(1),
// which is what keeps deep queues cheap. No protocol cancels a timer, so
// nothing ever leaves a slot early.
//
// Firing order: the wheel partitions events by tick, so cross-tick order
// is by time for free. Within the current tick every event funnels through
// the sorted "due" buffer, ordered by (at, seq) — the same total order the
// heap reference kernel in heapkernel_test.go produces.

package netsim

import (
	"math/bits"
	"sort"
)

const (
	// tickBits sets the wheel granularity: 1<<20 ns ≈ 1.05ms per tick,
	// matching the millisecond-scale protocol delays in this simulator.
	tickBits    = 20
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelLevels = 4
	slotMask    = wheelSlots - 1
)

// slotList is an intrusive singly-linked list of events occupying one wheel
// slot or the overflow list. Appending preserves arrival order.
type slotList struct {
	head, tail *event
}

func (l *slotList) append(ev *event) {
	ev.next = nil
	if l.tail != nil {
		l.tail.next = ev
	} else {
		l.head = ev
	}
	l.tail = ev
}

type wheelKernel struct {
	// base is the current tick: every event with tick <= base lives in the
	// due buffer, everything later hangs off a wheel slot or overflow.
	base  uint64
	slots [wheelLevels][wheelSlots]slotList
	// occ is a per-level occupancy bitmap (256 bits = 4 words) so advancing
	// jumps straight to the next non-empty slot instead of ticking.
	occ      [wheelLevels][wheelSlots / 64]uint64
	overflow slotList
	// due holds the current tick's events sorted by (at, seq); dueHead is
	// the consumption cursor.
	due     []*event
	dueHead int
	count   int
}

func tickOf(t VirtualTime) uint64 { return uint64(t) >> tickBits }

func (w *wheelKernel) schedule(ev *event) {
	w.place(ev)
	w.count++
}

// place routes an event to the due buffer, a wheel slot, or overflow,
// relative to the current base tick. Level l is correct when the event's
// tick agrees with base on every bit above level l's slot field — that
// guarantees slots at or below the base index of a level are never
// occupied, so advancing scans strictly forward.
func (w *wheelKernel) place(ev *event) {
	tk := tickOf(ev.at)
	if tk <= w.base {
		w.dueInsert(ev)
		return
	}
	x := tk ^ w.base
	for l := 0; l < wheelLevels; l++ {
		if x>>uint((l+1)*wheelBits) == 0 {
			idx := int((tk >> uint(l*wheelBits)) & slotMask)
			w.slots[l][idx].append(ev)
			w.occ[l][idx>>6] |= 1 << uint(idx&63)
			return
		}
	}
	w.overflow.append(ev)
}

// dueInsert splices an event into the sorted due buffer. Almost every
// insert lands at the tail (sequence numbers are monotonic), so the binary
// search rarely shifts anything.
func (w *wheelKernel) dueInsert(ev *event) {
	lo, hi := w.dueHead, len(w.due)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(w.due[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.due = append(w.due, nil)
	copy(w.due[lo+1:], w.due[lo:])
	w.due[lo] = ev
}

func (w *wheelKernel) peek() (VirtualTime, bool) {
	if w.dueHead == len(w.due) && !w.advance() {
		return 0, false
	}
	return w.due[w.dueHead].at, true
}

func (w *wheelKernel) pop() *event {
	if w.dueHead == len(w.due) && !w.advance() {
		return nil
	}
	ev := w.due[w.dueHead]
	w.due[w.dueHead] = nil
	w.dueHead++
	w.count--
	return ev
}

// advance moves base to the next occupied tick and drains that tick into
// the due buffer. It cascades higher-level slots down as windows open and
// refills from overflow when the wheels empty. Reports whether the due
// buffer gained events.
func (w *wheelKernel) advance() bool {
	w.due = w.due[:0]
	w.dueHead = 0
	for w.count > 0 {
		// Next occupied level-0 slot strictly after base's index: within a
		// window each L0 slot is exactly one tick.
		if idx, ok := w.nextOcc(0, int(w.base&slotMask)+1); ok {
			w.base = (w.base &^ uint64(slotMask)) | uint64(idx)
			w.drain(idx)
			return true
		}
		moved := false
		for l := 1; l < wheelLevels; l++ {
			cur := int((w.base >> uint(l*wheelBits)) & slotMask)
			idx, ok := w.nextOcc(l, cur+1)
			if !ok {
				continue
			}
			// Enter that slot's window: zero all lower-level base bits and
			// re-place the slot's events; ticks equal to the new base drop
			// straight into due, the rest spread over lower levels.
			shift := uint(l * wheelBits)
			w.base = w.base&^(uint64(1)<<(shift+wheelBits)-1) | uint64(idx)<<shift
			w.cascade(l, idx)
			moved = true
			break
		}
		if !moved {
			if w.overflow.head == nil {
				return false
			}
			w.refillOverflow()
		}
		if w.dueHead < len(w.due) {
			return true
		}
	}
	return false
}

// nextOcc returns the lowest occupied slot index >= from at the given
// level, scanning the occupancy bitmap a word at a time.
func (w *wheelKernel) nextOcc(level, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	word := from >> 6
	bit := uint(from & 63)
	for ; word < wheelSlots/64; word++ {
		v := w.occ[level][word] &^ (1<<bit - 1)
		if v != 0 {
			return word<<6 + bits.TrailingZeros64(v), true
		}
		bit = 0
	}
	return 0, false
}

// drain moves one level-0 slot (a single tick) into the due buffer. Slot
// lists are usually already in sequence order — cascades from higher levels
// can interleave older events behind newer ones, so sort only when needed.
func (w *wheelKernel) drain(idx int) {
	w.occ[0][idx>>6] &^= 1 << uint(idx&63)
	sorted := true
	var last *event
	for ev := w.slots[0][idx].head; ev != nil; ev = ev.next {
		if last != nil && eventLess(ev, last) {
			sorted = false
		}
		w.due = append(w.due, ev)
		last = ev
	}
	w.slots[0][idx] = slotList{}
	if !sorted {
		d := w.due[w.dueHead:]
		sort.Slice(d, func(i, j int) bool { return eventLess(d[i], d[j]) })
	}
}

// cascade empties a higher-level slot by re-placing each event relative to
// the freshly advanced base.
func (w *wheelKernel) cascade(level, idx int) {
	w.occ[level][idx>>6] &^= 1 << uint(idx&63)
	w.reinsert(&w.slots[level][idx])
}

// refillOverflow jumps base to the earliest overflow tick and re-places the
// overflow list: events now within wheel range go onto the wheels, and the
// rest are appended to the emptied overflow list again.
func (w *wheelKernel) refillOverflow() {
	min := ^uint64(0)
	for ev := w.overflow.head; ev != nil; ev = ev.next {
		if tk := tickOf(ev.at); tk < min {
			min = tk
		}
	}
	w.base = min
	w.reinsert(&w.overflow)
}

// reinsert detaches l and places each of its events in arrival order.
func (w *wheelKernel) reinsert(l *slotList) {
	ev := l.head
	*l = slotList{}
	for ev != nil {
		next := ev.next
		w.place(ev)
		ev = next
	}
}
