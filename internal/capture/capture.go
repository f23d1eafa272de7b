// Package capture records control-plane inputs and outputs (I/Os), the raw
// material of the paper's approach (§4). A router's control plane receives
// three input kinds — configuration changes, hardware status changes, and
// route advertisements/withdrawals — and produces three output kinds — RIB
// entries, FIB entries, and advertisements/withdrawals for other routers.
// Every protocol implementation in this repository reports each of these
// through a Recorder.
//
// Each I/O carries two timestamps: Time, the wall clock the router would
// stamp on a log line (virtual time distorted by that router's ClockModel),
// and TrueTime, the undistorted simulation time. Inference code (internal/
// hbr) may only use Time; TrueTime and the Causes field exist solely as the
// ground-truth oracle for the precision/recall experiments.
package capture

import (
	"fmt"
	"net/netip"
	"sync"

	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// Type classifies a control-plane I/O.
type Type uint8

// I/O types. Recv*/Config/Link* are inputs; Send*/RIB*/FIB* are outputs.
// SoftReconfig is an internal control-plane event that Cisco-style logs
// expose (Fig. 5) and that links a config change to the outputs it causes.
const (
	ConfigChange Type = iota
	LinkUp
	LinkDown
	RecvAdvert
	RecvWithdraw
	SendAdvert
	SendWithdraw
	RIBInstall
	RIBRemove
	FIBInstall
	FIBRemove
	SoftReconfig
)

var typeNames = [...]string{
	"config-change", "link-up", "link-down",
	"recv-advert", "recv-withdraw", "send-advert", "send-withdraw",
	"rib-install", "rib-remove", "fib-install", "fib-remove",
	"soft-reconfig",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("io(%d)", uint8(t))
}

// ParseType is the inverse of Type.String. The boolean reports success.
func ParseType(s string) (Type, bool) {
	for i, n := range typeNames {
		if s == n {
			return Type(i), true
		}
	}
	return 0, false
}

// IsInput reports whether t is an input to the control plane (§4.1).
func (t Type) IsInput() bool {
	switch t {
	case ConfigChange, LinkUp, LinkDown, RecvAdvert, RecvWithdraw:
		return true
	}
	return false
}

// IsOutput reports whether t is an output of the control plane.
func (t Type) IsOutput() bool {
	switch t {
	case SendAdvert, SendWithdraw, RIBInstall, RIBRemove, FIBInstall, FIBRemove:
		return true
	}
	return false
}

// IO is one captured control-plane input or output.
type IO struct {
	ID     uint64
	Router string
	Type   Type
	Proto  route.Protocol
	// Prefix is set for all route-carrying I/Os; the zero Prefix marks
	// prefix-less events (config changes, link events).
	Prefix  netip.Prefix
	NextHop netip.Addr
	// NextHops carries the full ECMP next-hop set for multipath FIB I/Os
	// (sorted, NextHops[0] == NextHop); nil for single-path I/Os.
	NextHops []netip.Addr
	// Peer names the remote router for send/recv I/Os; PeerAddr is the
	// session address. For link events Peer names the other end.
	Peer     string
	PeerAddr netip.Addr
	Attrs    route.BGPAttrs
	// Detail carries human-readable context: config summaries, link names.
	Detail string
	// Time is the router-observed (skewed) timestamp used by inference.
	Time netsim.VirtualTime
	// TrueTime is the undistorted virtual time (oracle only).
	TrueTime netsim.VirtualTime
	// Causes lists ground-truth causal parents (oracle only).
	Causes []uint64
}

// HasPrefix reports whether the I/O carries a route prefix.
func (io IO) HasPrefix() bool { return io.Prefix.IsValid() }

// String renders the I/O in the paper's "[router action prefix]" style.
func (io IO) String() string {
	switch io.Type {
	case ConfigChange:
		return fmt.Sprintf("[%s config change: %s]", io.Router, io.Detail)
	case LinkUp, LinkDown:
		return fmt.Sprintf("[%s %s %s]", io.Router, io.Type, io.Detail)
	case SoftReconfig:
		return fmt.Sprintf("[%s soft reconfiguration]", io.Router)
	case RecvAdvert, RecvWithdraw:
		return fmt.Sprintf("[%s %s %s %s from %s]", io.Router, io.Type, io.Proto, io.Prefix, io.Peer)
	case SendAdvert, SendWithdraw:
		return fmt.Sprintf("[%s %s %s %s to %s]", io.Router, io.Type, io.Proto, io.Prefix, io.Peer)
	case RIBInstall, RIBRemove:
		return fmt.Sprintf("[%s %s %s %s via %s]", io.Router, io.Type, io.Proto, io.Prefix, nhString(io.NextHop))
	case FIBInstall, FIBRemove:
		return fmt.Sprintf("[%s %s %s via %s]", io.Router, io.Type, io.Prefix, nhString(io.NextHop))
	default:
		return fmt.Sprintf("[%s %s]", io.Router, io.Type)
	}
}

func nhString(a netip.Addr) string {
	if !a.IsValid() {
		return "direct"
	}
	return a.String()
}

// A log's segments hold 4,096 events, 1.3 MB at 320 bytes an event: small
// beside a window of tens of thousands, which is what a part-used one costs.
const (
	segShift = 12
	segLen   = 1 << segShift
	segMask  = segLen - 1
)

// View is a read-only run of captured I/Os in append order — a Log's window
// (Log.View), a sub-view, or a caller's slice (ViewOf) — made without a copy.
// A log writes only past the end of every view it handed out, so a view
// reads the same events, without the log's lock, across later appends and
// compactions; holding it keeps the memory of its window's segments alive.
type View struct {
	segs [][]IO // every segment but the last holds exactly segLen events
	off  int    // position of the view's first event in segs[0]
	n    int
}

// ViewOf wraps ios as a view without copying it. The caller must not modify
// ios while the view is in use.
func ViewOf(ios []IO) View {
	v := View{n: len(ios), segs: make([][]IO, 0, (len(ios)+segMask)>>segShift)}
	for i := 0; i < len(ios); i += segLen {
		v.segs = append(v.segs, ios[i:min(i+segLen, len(ios))])
	}
	return v
}

// Len reports the number of events in the view.
func (v View) Len() int { return v.n }

// At returns the i-th event. It is shared, never to be written.
func (v View) At(i int) *IO {
	if uint(i) >= uint(v.n) {
		panic("capture: View.At index out of range")
	}
	j := v.off + i
	return &v.segs[j>>segShift][j&segMask]
}

// Slice returns the sub-view of events [i, j).
func (v View) Slice(i, j int) View {
	if i < 0 || j < i || j > v.n {
		panic("capture: View.Slice bounds out of range")
	}
	off := v.off + i
	return View{segs: v.segs[off>>segShift:], off: off & segMask, n: j - i}
}

// run returns the contiguous events from position i to the end of its
// segment or of the view.
func (v View) run(i int) []IO {
	j := v.off + i
	seg, lo := v.segs[j>>segShift], j&segMask
	return seg[lo:min(len(seg), lo+v.n-i)]
}

// Flatten copies the view into one new slice (nil when empty). Every caller
// is a place a window-sized copy is made on purpose; DESIGN.md §6 lists them.
func (v View) Flatten() []IO {
	if v.n == 0 {
		return nil
	}
	out := make([]IO, 0, v.n)
	for i := 0; i < v.n; {
		r := v.run(i)
		out = append(out, r...)
		i += len(r)
	}
	return out
}

// Stripped copies the view's events, less those whose IDs are in hidden
// (ascending; nil for none), with the oracle fields cleared in the same pass.
func (v View) Stripped(hidden []uint64) []IO {
	out := make([]IO, 0, max(0, v.n-len(hidden)))
	for i := 0; i < v.n; {
		r := v.run(i)
		i += len(r)
		for k := range r {
			for len(hidden) > 0 && hidden[0] < r[k].ID {
				hidden = hidden[1:]
			}
			if len(hidden) > 0 && hidden[0] == r[k].ID {
				continue
			}
			out = append(out, r[k])
			out[len(out)-1].Causes, out[len(out)-1].TrueTime = nil, 0
		}
	}
	return out
}

// Log is the network-wide capture log shared by all recorders. It is safe
// for concurrent use (the distributed verifier reads it from goroutines).
//
// The log is a *window* over an append-only history: every I/O ever
// appended gets a dense, monotonically increasing ID, and CompactBefore
// evicts a prefix of the retained window once its inferred happens-before
// edges have been folded into a checkpoint (see internal/stream). All
// accessors operate on the retained window; TotalAppended and FirstID
// expose the window's position in the full history.
//
// The window lives in fixed segments: an append fills the last one or starts
// another and never moves an event, and CompactBefore drops whole segments
// and moves a floor into the first, so one at most is part-empty and one
// part-evicted.
type Log struct {
	mu     sync.Mutex
	nextID uint64
	// segs[0][floor] is the oldest of n retained events. Views share segs, so
	// CompactBefore replaces the list instead of editing it.
	segs  [][]IO
	floor int
	n     int
	subs  []func(IO)
	// pending holds appended I/Os awaiting subscriber delivery, in ID
	// order; dispatchMu serializes delivery so concurrent appenders can
	// never deliver out of ID order (the documented subscriber guarantee).
	pending    []IO
	dispatchMu sync.Mutex
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{nextID: 1} }

// RestoreLog rebuilds a log from a recovered checkpoint window: ios must
// carry dense ascending IDs (as Snapshot returns them) and become the
// retained window verbatim; ID assignment resumes after the last entry.
// An empty ios with nextID n restores a fully-compacted log whose next
// append gets ID n (pass 0 for a fresh log). A non-empty window rejects a
// nextID past its tail: that would punch a hole in the dense ID space.
func RestoreLog(ios []IO, nextID uint64) (*Log, error) {
	l := NewLog()
	if len(ios) > 0 {
		for i := 1; i < len(ios); i++ {
			if ios[i].ID != ios[i-1].ID+1 {
				return nil, fmt.Errorf("capture: restore window not dense at index %d (ID %d after %d)",
					i, ios[i].ID, ios[i-1].ID)
			}
		}
		if ios[0].ID == 0 {
			return nil, fmt.Errorf("capture: restore window starts at ID 0")
		}
		if nextID > ios[len(ios)-1].ID+1 {
			return nil, fmt.Errorf("capture: restore nextID %d leaves a gap after retained tail %d",
				nextID, ios[len(ios)-1].ID)
		}
		l.nextID = ios[0].ID
		for i := range ios {
			l.pushLocked(ios[i])
		}
	} else if nextID > 1 {
		l.nextID = nextID
	}
	return l, nil
}

// pushLocked stores io in the next slot under the next ID.
func (l *Log) pushLocked(io IO) {
	io.ID = l.nextID
	l.nextID++
	end := l.floor + l.n
	if end == len(l.segs)<<segShift {
		l.segs = append(l.segs, make([]IO, segLen))
	}
	l.segs[end>>segShift][end&segMask] = io
	l.n++
}

// viewLocked is the view of retained events [i, j).
func (l *Log) viewLocked(i, j int) View {
	return View{segs: l.segs[:len(l.segs):len(l.segs)], off: l.floor, n: l.n}.Slice(i, j)
}

// Subscribe registers fn to be called for every appended I/O, in ID order.
// Delivery happens outside the log's internal lock but inside a dedicated
// dispatch lock, so with concurrent appenders an I/O may be delivered by a
// sibling appender's call rather than its own; the order guarantee holds
// regardless. Subscribers must not append to the log.
func (l *Log) Subscribe(fn func(IO)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subs = append(l.subs, fn)
}

// Append records one externally-sourced I/O (e.g. a parsed log line),
// assigning the next dense ID. Recorder-driven capture goes through the
// typed helpers below; Append is the ingestion entry point for events that
// arrive already formed.
func (l *Log) Append(io IO) IO { return l.append(io) }

func (l *Log) append(io IO) IO {
	l.mu.Lock()
	io.ID = l.nextID
	l.pushLocked(io)
	deliver := len(l.subs) > 0
	if deliver {
		l.pending = append(l.pending, io)
	}
	l.mu.Unlock()
	if deliver {
		l.dispatch()
	}
	return io
}

// dispatch drains pending I/Os to subscribers in ID order. The dispatch
// lock makes delivery a critical section of its own: whichever appender
// wins it delivers everything queued so far, so no interleaving of
// concurrent appenders can reorder what subscribers observe.
func (l *Log) dispatch() {
	l.dispatchMu.Lock()
	defer l.dispatchMu.Unlock()
	for {
		l.mu.Lock()
		batch := l.pending
		l.pending = nil
		subs := l.subs
		l.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		for i := range batch {
			for _, fn := range subs {
				fn(batch[i])
			}
		}
	}
}

// Len reports the number of retained I/Os (the current window size).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// TotalAppended reports how many I/Os have ever been appended, including
// compacted-away ones.
func (l *Log) TotalAppended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextID - 1
}

// FirstID returns the ID of the oldest retained I/O, or the next ID to be
// assigned when the window is empty. IDs below FirstID have been
// compacted away.
func (l *Log) FirstID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextID - uint64(l.n)
}

// CompactBefore evicts every retained I/O with ID < id and returns the
// number evicted. Callers must first fold the evicted events' inferred edges
// into a checkpoint (hbg.Checkpoint / hbr.Incremental.CompactBaseline) or
// they are lost to inference. IDs at or above the append frontier evict the
// whole window. A segment is released once all of it is evicted and no view
// holds it.
func (l *Log) CompactBefore(id uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.nextID - uint64(l.n)
	if id <= first || l.n == 0 {
		return 0
	}
	drop := int(min(id, l.nextID) - first)
	l.n -= drop
	l.floor += drop
	switch k := l.floor >> segShift; {
	case l.n == 0:
		l.segs, l.floor = nil, 0
	case k > 0:
		l.segs = append([][]IO(nil), l.segs[k:]...)
		l.floor &= segMask
	}
	return drop
}

// View returns the retained window without copying it (see View).
func (l *Log) View() View {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.viewLocked(0, l.n)
}

// Snapshot returns a private copy of the retained I/Os in append order
// (which equals TrueTime order because the simulator is single-threaded):
// for tests, oracles and tools that want a flat slice. Production paths read
// View instead.
func (l *Log) Snapshot() []IO { return l.View().Flatten() }

// All is Snapshot, under the name the tests and tools grew up with.
func (l *Log) All() []IO { return l.Snapshot() }

// AppendBatch appends a batch of I/Os in one critical section, assigning
// dense IDs, and returns the stored entries as a view. Replayed or parsed
// logs land in one mutex acquisition instead of one per line; subscribers
// still observe every I/O individually, in order.
func (l *Log) AppendBatch(ios []IO) View {
	if len(ios) == 0 {
		return View{}
	}
	l.mu.Lock()
	start := l.n
	for i := range ios {
		l.pushLocked(ios[i])
	}
	stored := l.viewLocked(start, l.n)
	deliver := len(l.subs) > 0
	if deliver {
		for i := 0; i < stored.Len(); i++ {
			l.pending = append(l.pending, *stored.At(i))
		}
	}
	l.mu.Unlock()
	if deliver {
		l.dispatch()
	}
	return stored
}

// ByID returns the I/O with the given ID. Compacted-away IDs report false.
func (l *Log) ByID(id uint64) (IO, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.nextID - uint64(l.n)
	if id < first || id >= l.nextID {
		return IO{}, false
	}
	// IDs are dense and append-ordered within the retained window.
	return *l.viewLocked(0, l.n).At(int(id - first)), true
}

// Filter returns the I/Os for which keep returns true, in append order, in
// a right-sized slice: the window is read through a view, not copied first.
func (l *Log) Filter(keep func(IO) bool) []IO {
	v := l.View()
	n := 0
	for i := 0; i < v.Len(); i++ {
		if keep(*v.At(i)) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]IO, 0, n)
	for i := 0; i < v.Len(); i++ {
		if io := v.At(i); keep(*io) {
			out = append(out, *io)
		}
	}
	return out
}

// ForRouter returns the I/Os captured at one router.
func (l *Log) ForRouter(name string) []IO {
	return l.Filter(func(io IO) bool { return io.Router == name })
}

// ForPrefix returns the I/Os carrying the exact prefix p.
func (l *Log) ForPrefix(p netip.Prefix) []IO {
	p = p.Masked()
	return l.Filter(func(io IO) bool { return io.Prefix == p })
}

// StripOracle returns a copy of the I/Os with ground-truth fields cleared,
// for handing to inference code in experiments that must not cheat.
func StripOracle(ios []IO) []IO { return ViewOf(ios).Stripped(nil) }

// Recorder captures I/Os on behalf of one router, stamping them with the
// router's (possibly skewed) clock and the current causal scope.
type Recorder struct {
	log    *Log
	router string
	sched  *netsim.Scheduler
	clock  *netsim.ClockModel
	scope  [][]uint64
}

// NewRecorder builds a recorder for a router. clock may be nil for a
// perfectly synchronized router.
func NewRecorder(log *Log, router string, sched *netsim.Scheduler, clock *netsim.ClockModel) *Recorder {
	return &Recorder{log: log, router: router, sched: sched, clock: clock}
}

// Router returns the owning router's name.
func (r *Recorder) Router() string { return r.router }

// PushCause enters a causal scope: every I/O recorded until the matching
// PopCause lists ids as ground-truth parents. Scopes nest; inner scopes
// replace (not extend) outer ones, because a protocol handler processing
// input X knows exactly which inputs its outputs depend on.
func (r *Recorder) PushCause(ids ...uint64) {
	r.scope = append(r.scope, append([]uint64(nil), ids...))
}

// PopCause leaves the innermost causal scope.
func (r *Recorder) PopCause() {
	if len(r.scope) == 0 {
		panic("capture: PopCause without PushCause")
	}
	r.scope = r.scope[:len(r.scope)-1]
}

// WithCause runs fn inside a causal scope.
func (r *Recorder) WithCause(ids []uint64, fn func()) {
	r.PushCause(ids...)
	defer r.PopCause()
	fn()
}

// Record appends io to the network log, filling router, timestamps, and the
// causal scope. It returns the stored I/O (with its assigned ID) so callers
// can chain causality.
func (r *Recorder) Record(io IO) IO {
	io.Router = r.router
	now := r.sched.Now()
	io.TrueTime = now
	io.Time = r.clock.Read(now)
	if len(io.Causes) == 0 && len(r.scope) > 0 {
		io.Causes = append([]uint64(nil), r.scope[len(r.scope)-1]...)
	}
	return r.log.append(io)
}
