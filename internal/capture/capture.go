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
	"sort"
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

// Log is the network-wide capture log shared by all recorders. It is safe
// for concurrent use (the distributed verifier reads it from goroutines).
//
// The log is a *window* over an append-only history: every I/O ever
// appended gets a dense, monotonically increasing ID, and CompactBefore
// evicts a prefix of the retained window once its inferred happens-before
// edges have been folded into a checkpoint (see internal/stream). All
// accessors operate on the retained window; TotalAppended and FirstID
// expose the window's position in the full history.
type Log struct {
	mu      sync.Mutex
	nextID  uint64
	firstID uint64 // ID of ios[0]; nextID when the window is empty
	ios     []IO
	subs    []func(IO)
	// gen counts mutations (appends and compactions); obs caches the
	// ObservedOrder result for one generation, so repeated inference ticks
	// over an unchanged log do not re-sort the world.
	gen    uint64
	obs    []IO
	obsGen uint64
	// pending holds appended I/Os awaiting subscriber delivery, in ID
	// order; dispatchMu serializes delivery so concurrent appenders can
	// never deliver out of ID order (the documented subscriber guarantee).
	pending    []IO
	dispatchMu sync.Mutex
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{nextID: 1, firstID: 1} }

// RestoreLog rebuilds a log from a recovered checkpoint window: ios must
// carry dense ascending IDs (as Snapshot returns them) and become the
// retained window verbatim; ID assignment resumes after the last entry.
// An empty ios with nextID n restores a fully-compacted log whose next
// append gets ID n (pass 0 for a fresh log). A non-empty window rejects a
// nextID past its tail: that would punch a hole in the dense ID space.
func RestoreLog(ios []IO, nextID uint64) (*Log, error) {
	l := &Log{nextID: 1, firstID: 1}
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
		l.ios = append([]IO(nil), ios...)
		l.firstID = ios[0].ID
		l.nextID = ios[len(ios)-1].ID + 1
	} else if nextID > 1 {
		l.nextID, l.firstID = nextID, nextID
	}
	return l, nil
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
	l.nextID++
	l.gen++
	l.ios = append(l.ios, io)
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
	return len(l.ios)
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
	if len(l.ios) == 0 {
		return l.nextID
	}
	return l.firstID
}

// CompactBefore evicts every retained I/O with ID < id, releasing its
// memory, and returns the number evicted. Callers must first fold the
// evicted events' inferred edges into a checkpoint (hbg.Checkpoint /
// hbr.Incremental.CompactBaseline) or they are lost to inference. IDs at
// or above the append frontier evict the whole window.
func (l *Log) CompactBefore(id uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id > l.nextID {
		id = l.nextID
	}
	if len(l.ios) == 0 || id <= l.firstID {
		return 0
	}
	drop := int(id - l.firstID)
	if drop > len(l.ios) {
		drop = len(l.ios)
	}
	// Copy into a new array so the evicted prefix's backing array is released
	// rather than pinned by the retained tail, with room to refill what was
	// dropped: a right-sized array is regrown, whole, by the very next append.
	// A log that evicts everything keeps no capacity.
	n := len(l.ios) - drop
	kept := make([]IO, n, n+min(drop, n))
	copy(kept, l.ios[drop:])
	l.ios = kept
	l.firstID += uint64(drop)
	l.gen++
	l.obs = nil // drop the stale observed-order cache's memory too
	return drop
}

// All returns a copy of every retained I/O in append order (which equals
// TrueTime order because the simulator is single-threaded).
func (l *Log) All() []IO {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]IO(nil), l.ios...)
}

// Snapshot returns the retained I/Os in append order as a shared,
// capacity-capped slice — zero copies. Entries are never mutated after
// append and the cap prevents aliasing future appends, so the result is
// immutable; callers must treat it as read-only (use All for a private
// copy).
func (l *Log) Snapshot() []IO {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ios[:len(l.ios):len(l.ios)]
}

// AppendBatch appends a batch of I/Os in one critical section, assigning
// dense IDs, and returns the stored entries as a shared read-only slice.
// Replayed or parsed logs land in one mutex acquisition instead of one
// per line; subscribers still observe every I/O individually, in order.
func (l *Log) AppendBatch(ios []IO) []IO {
	if len(ios) == 0 {
		return nil
	}
	l.mu.Lock()
	start := len(l.ios)
	l.ios = append(l.ios, ios...)
	for i := start; i < len(l.ios); i++ {
		l.ios[i].ID = l.nextID
		l.nextID++
	}
	l.gen++
	stored := l.ios[start:len(l.ios):len(l.ios)]
	deliver := len(l.subs) > 0
	if deliver {
		l.pending = append(l.pending, stored...)
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
	if id < l.firstID || id >= l.nextID {
		return IO{}, false
	}
	// IDs are dense and append-ordered within the retained window.
	return l.ios[id-l.firstID], true
}

// Filter returns the I/Os for which keep returns true, in append order.
// It filters under the lock into a right-sized slice instead of copying
// the whole log first.
func (l *Log) Filter(keep func(IO) bool) []IO {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := range l.ios {
		if keep(l.ios[i]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]IO, 0, n)
	for i := range l.ios {
		if keep(l.ios[i]) {
			out = append(out, l.ios[i])
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

// ObservedOrder returns the retained I/Os sorted by router-observed time,
// breaking ties by ID. This is the view an inference engine working from
// collected router logs would have. The result is cached per log
// generation and shared between calls; callers must treat it as read-only.
func (l *Log) ObservedOrder() []IO {
	l.mu.Lock()
	if l.obs != nil && l.obsGen == l.gen {
		out := l.obs
		l.mu.Unlock()
		return out
	}
	gen := l.gen
	out := append([]IO(nil), l.ios...)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].ID < out[j].ID
	})
	l.mu.Lock()
	if gen >= l.obsGen {
		l.obs, l.obsGen = out, gen
	}
	l.mu.Unlock()
	return out
}

// StripOracle returns a copy of the I/Os with ground-truth fields cleared,
// for handing to inference code in experiments that must not cheat.
func StripOracle(ios []IO) []IO {
	out := append([]IO(nil), ios...)
	StripOracleInPlace(out)
	return out
}

// StripOracleInPlace clears the ground-truth fields of ios itself, for a
// caller that owns the slice — never one a Log handed out.
func StripOracleInPlace(ios []IO) {
	for i := range ios {
		ios[i].Causes = nil
		ios[i].TrueTime = 0
	}
}

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
