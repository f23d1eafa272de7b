// Incremental inference: the control-plane integration of §5 makes HBG
// inference a hot path — every verification tick re-asks for the graph —
// yet the capture log is append-only and every rule's reach is bounded by
// a look-back window. Incremental exploits both: it caches the inferred
// graph keyed on the covered log window and, when new I/Os arrive, re-runs
// the base strategy's rule only over the new suffix plus the old events it
// can reach, adding the new events and replacing the in-edge sets the suffix
// changed instead of rebuilding the graph from scratch.
//
// Coverage is tracked by event ID rather than slice position, so the cache
// survives log compaction: after the capture window's prefix is evicted,
// "checkpoint graph + retained window" remains a valid baseline
// (SeedCheckpoint / CompactBaseline below).

package hbr

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
	"hbverify/internal/metrics"
	"hbverify/internal/netsim"
)

// DefaultSkewSlack bounds how far router clocks may disagree with the
// capture log's append (true-time) order. The look-back scan in extend
// must tolerate stragglers: an event appended late because its router's
// clock runs slow carries an observed Time below its neighbours', and a
// scan that stops at the first sub-cutoff timestamp would silently skip
// the in-window events appended before it. Two times the maximum skew of
// any clock model in the fleet is sufficient; 1 s comfortably covers the
// ±hundreds-of-ms skews the simulator produces.
const DefaultSkewSlack = time.Second

// Lookbacker is implemented by strategies whose inference for one event
// never reaches further back in observed time than a bounded window. That
// bound is what makes suffix-only re-inference sound: any in-window
// candidate for a new event lies inside the look-back slice.
type Lookbacker interface {
	// LookbackWindow returns the maximum reach of any rule, in observed
	// (router-clock) time.
	LookbackWindow() time.Duration
}

// LookbackWindow implements Lookbacker: the widest of the three rule
// windows (config matching reaches the furthest, §7's 25 s TTY→soft-reconfig
// gap being the motivating case).
func (r Rules) LookbackWindow() time.Duration {
	w, cw, xw := r.windows()
	return max(w, cw, xw)
}

// LookbackWindow implements Lookbacker.
func (p Prefix) LookbackWindow() time.Duration {
	if p.Window == 0 {
		return 500 * time.Millisecond
	}
	return p.Window
}

// LookbackWindow implements Lookbacker. A Patterns strategy without a
// trained model infers no edges, so any window is sound.
func (p Patterns) LookbackWindow() time.Duration {
	if p.Model == nil || p.Model.window == 0 {
		return 500 * time.Millisecond
	}
	return p.Model.window
}

// LookbackWindow implements Lookbacker.
func (c Combined) LookbackWindow() time.Duration {
	return max(c.Rules.LookbackWindow(), c.Patterns.LookbackWindow())
}

// reach bounds what one evaluation of a strategy's rule reads, in the two
// primitives every rule is built from: matchSendForRecv looks cross to either
// side of a receive, and precedingOnRouter looks back near — further only for
// the kinds in far, which may lie anywhere within LookbackWindow.
type reach struct {
	cross, near time.Duration
	far         uint32 // one bit per capture.Type
}

func (r Rules) reach() reach {
	w, _, xw := r.windows()
	return reach{cross: xw, near: w, far: 1 << capture.ConfigChange}
}

func (p Prefix) reach() reach { return reach{cross: p.LookbackWindow(), near: p.LookbackWindow()} }

func (p Patterns) reach() reach { return reach{cross: p.LookbackWindow(), near: p.LookbackWindow()} }

func (c Combined) reach() reach {
	r, p := c.Rules.reach(), c.Patterns.reach()
	return reach{cross: max(r.cross, p.cross), near: max(r.near, p.near), far: r.far | p.far}
}

// ruler is what the suffix path needs of a base strategy: its bounded reach
// and its inference as a per-event rule, so the look-back slice is re-derived
// without building a graph of it. This package's Lookbackers all qualify.
type ruler interface {
	Lookbacker
	rule(idx *Index) rule
	reach() reach
}

// Incremental wraps a base Strategy with a graph cache over the append-only
// capture log.
//
//   - Same window as last time (endpoint IDs and length match): return the
//     cached graph untouched — a cache hit.
//   - The window grew at the tail and its covered prefix is unchanged: run
//     the base strategy's rule over the new suffix plus the old events within
//     its reach, add the suffix's vertices and edges to the cached graph, and
//     replace the in-edges of those older events.
//   - The covered window with events missing — a cut-filtered snapshot
//     collection, or (Cached) the window itself with the IDs a cut hides —
//     the base strategy is Rules and the cache holds no folded history:
//     answer with the cached graph minus the missing vertices, re-deriving
//     only their children (derive), WITHOUT disturbing the cache.
//   - Anything else (a different prefix, another strategy): fall back to a
//     one-off full inference, again without disturbing the cache, so snapshot
//     sweeps cannot poison the pipeline's incremental state.
//
// Because coverage is keyed on event IDs, log compaction composes with the
// cache: CompactBaseline moves the covered window's left edge forward (and
// prunes the cached graph, folding root causes), after which Infer calls
// over the retained window extend the checkpointed graph exactly as if the
// evicted prefix were still present.
//
// The suffix path is available only when the base strategy is one of this
// package's Lookbackers; otherwise every growth falls back to
// (cached-as-new-baseline) full inference.
//
// Incremental is safe for concurrent use. The returned *hbg.Graph is shared
// across calls; hbg.Graph is itself concurrency-safe, and Invalidate
// provides the reset path for when the repair engine rolls configuration
// back and conservative full re-inference is wanted.
type Incremental struct {
	// Base is the wrapped inference strategy.
	Base Strategy
	// Metrics optionally receives infer.full / infer.incremental timers and
	// infer.cache.* counters.
	Metrics *metrics.Registry
	// SkewSlack widens the look-back scan to tolerate clock skew between
	// routers (see DefaultSkewSlack). Zero selects the default; a negative
	// value disables the slack entirely (test hook — unsound under skew).
	SkewSlack time.Duration

	mu      sync.Mutex
	cached  *hbg.Graph
	firstID uint64 // ID the covered window starts at
	lastID  uint64 // last covered ID; coverage is empty when lastID < firstID
	// checkpointed marks a cache whose graph covers history below firstID
	// (seeded from a checkpoint or compacted in place). Such a graph must
	// never be replaced by a full inference over the retained window alone.
	checkpointed bool
}

// NewIncremental wraps base. A nil registry disables metrics.
func NewIncremental(base Strategy, reg *metrics.Registry) *Incremental {
	return &Incremental{Base: base, Metrics: reg}
}

// Name implements Strategy.
func (inc *Incremental) Name() string { return "incremental(" + inc.Base.Name() + ")" }

// Invalidate drops the cached graph; the next Infer performs a full
// inference. The repair engine calls this after rolling back a
// configuration so the post-repair graph is rebuilt from scratch rather
// than accreted through windowed merges.
func (inc *Incremental) Invalidate() {
	inc.mu.Lock()
	inc.cached, inc.firstID, inc.lastID, inc.checkpointed = nil, 0, 0, false
	inc.mu.Unlock()
	inc.Metrics.Counter("infer.cache.invalidations").Inc()
}

// SeedCheckpoint installs a recovered graph as the cache baseline.
// firstRetainedID is the ID the retained capture window now starts at
// (lastID+1 when the window is empty) and lastID is the last event the
// graph's edges account for. Subsequent Infer calls over the retained
// window extend g incrementally instead of re-inferring from scratch —
// which they could not do anyway, since the pre-checkpoint events are gone.
func (inc *Incremental) SeedCheckpoint(g *hbg.Graph, firstRetainedID, lastID uint64) {
	inc.mu.Lock()
	inc.cached, inc.firstID, inc.lastID = g, firstRetainedID, lastID
	inc.checkpointed = true
	inc.mu.Unlock()
	inc.Metrics.Counter("infer.cache.seeded").Inc()
}

// CompactBaseline records that the capture log evicted all events below
// firstRetainedID and prunes the cached graph to match (folding the evicted
// vertices' root causes into their in-window successors, so RootCauses
// answers are preserved). Call after folding the evicted events' edges into
// the cache via Infer and before — or after, both orders are safe — the
// log's own CompactBefore. No-op if the cache is cold or already past the
// floor.
func (inc *Incremental) CompactBaseline(firstRetainedID uint64) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.cached == nil || firstRetainedID <= inc.firstID {
		return
	}
	inc.firstID = firstRetainedID
	if inc.lastID < inc.firstID-1 {
		inc.lastID = inc.firstID - 1 // window compacted to empty
	}
	inc.checkpointed = true
	inc.cached.PruneBefore(firstRetainedID)
	inc.Metrics.Counter("infer.cache.compactions").Inc()
}

// CoveredWindow reports the ID range [first, last] the cache currently
// covers (last < first when coverage is empty) and whether a baseline
// exists at all.
func (inc *Incremental) CoveredWindow() (first, last uint64, ok bool) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.firstID, inc.lastID, inc.cached != nil
}

// Cached answers for v less the hidden events (IDs ascending, nil for none)
// from the cache alone, or returns nil: for the covered window itself, the
// cached graph; for a cut of it, under Rules with no folded history, a graph
// derived from the cached one (derive), which reads v in place. Only v's
// endpoints and hidden's range decide, so a caller can ask before it
// prepares — copies, strips — the log for an inference.
func (inc *Incremental) Cached(v capture.View, hidden []uint64) *hbg.Graph {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if len(hidden) == 0 {
		return inc.hitLocked(v)
	}
	base, ok := inc.Base.(Rules)
	if !ok || inc.checkpointed || inc.cached == nil || !inc.matchesCoveredLocked(v) ||
		hidden[0] < inc.firstID || hidden[len(hidden)-1] > inc.lastID {
		return nil
	}
	return inc.derive(v, hidden, base)
}

func (inc *Incremental) hitLocked(v capture.View) *hbg.Graph {
	if inc.cached == nil || !inc.matchesCoveredLocked(v) {
		return nil
	}
	inc.Metrics.Counter("infer.cache.hits").Inc()
	return inc.cached
}

// Infer implements Strategy.
func (inc *Incremental) Infer(ios []capture.IO) *hbg.Graph { return inc.InferView(capture.ViewOf(ios)) }

// InferView is Infer over a view, read in place: the case a log's own
// window takes (stream.Daemon, Pipeline).
func (inc *Incremental) InferView(ios capture.View) *hbg.Graph {
	inc.mu.Lock()
	defer inc.mu.Unlock()

	if g := inc.hitLocked(ios); g != nil {
		return g
	}
	if inc.cached != nil {
		// Append-only growth of the covered window?
		if sufStart, ok := inc.extensionStartLocked(ios); ok {
			if base, ok := inc.Base.(ruler); ok {
				return inc.extend(ios, sufStart, base)
			}
		}
		if base, ok := inc.Base.(Rules); ok && !inc.checkpointed {
			if hidden, ok := inc.missingLocked(ios); ok {
				return inc.derive(ios, hidden, base)
			}
		}
	}

	// Fallback: full inference. A log that still starts at the covered
	// window's left edge and reaches its right edge becomes the new
	// baseline; a diverged log (snapshot cuts, a different capture source,
	// a window racing a concurrent compaction) is served without touching
	// the cache. A checkpointed cache is never replaced here: the full
	// inference saw only the retained window, not the folded history.
	start := time.Now()
	g := InferIndexed(inc.Base, inc.index(ios, nil, math.MinInt64))
	inc.Metrics.Timer("infer.full").Observe(time.Since(start))
	inc.Metrics.Counter("infer.cache.misses").Inc()
	if inc.adoptableLocked(ios) {
		inc.cached, inc.firstID, inc.lastID = g, ios.At(0).ID, lastIDOf(ios)
	}
	return g
}

// matchesCoveredLocked reports whether ios is exactly the covered window.
// IDs are dense and append-ordered, so matching both endpoints plus the
// length pins the whole view.
func (inc *Incremental) matchesCoveredLocked(ios capture.View) bool {
	if inc.lastID < inc.firstID { // empty coverage
		return ios.Len() == 0
	}
	n := int(inc.lastID - inc.firstID + 1)
	return ios.Len() == n && ios.At(0).ID == inc.firstID && ios.At(n-1).ID == inc.lastID
}

// extensionStartLocked reports whether ios is the covered window plus a
// non-empty new suffix, and if so at which index the suffix starts.
func (inc *Incremental) extensionStartLocked(ios capture.View) (int, bool) {
	if ios.Len() == 0 || ios.At(0).ID != inc.firstID {
		return 0, false
	}
	if inc.lastID < inc.firstID {
		return 0, true // empty covered window: the whole view is suffix
	}
	pos := int(inc.lastID - inc.firstID) // index of lastID when dense
	if pos >= ios.Len()-1 || ios.At(pos).ID != inc.lastID {
		return 0, false
	}
	return pos + 1, true
}

// missingLocked reports whether ios is the covered window with at least one
// event left out — IDs strictly ascending inside [firstID, lastID] — and if
// so which IDs are missing, ascending.
func (inc *Incremental) missingLocked(ios capture.View) ([]uint64, bool) {
	if inc.lastID < inc.firstID || uint64(ios.Len()) > inc.lastID-inc.firstID {
		return nil, false
	}
	hidden := make([]uint64, 0, inc.lastID-inc.firstID+1-uint64(ios.Len()))
	next := inc.firstID
	for i := 0; i < ios.Len(); i++ {
		id := ios.At(i).ID
		if id < next || id > inc.lastID {
			return nil, false
		}
		for ; next < id; next++ {
			hidden = append(hidden, next)
		}
		next = id + 1
	}
	for ; next <= inc.lastID; next++ {
		hidden = append(hidden, next)
	}
	return hidden, true
}

// staleDerive is the scenario harness's injectable bug: derive re-derives
// nothing, so the hidden events' children keep what cached in-edges remain.
var staleDerive atomic.Bool

// SetStaleDeriveBug toggles the injected derive bug (test harness only).
func SetStaleDeriveBug(on bool) { staleDerive.Store(on) }

// narrowTail is the scenario harness's injectable bug: extend re-derives from
// the suffix's earliest time on, not a cross window before it, so an old
// receive keeps the send a nearer suffix send should have displaced.
var narrowTail atomic.Bool

// SetNarrowTailBug toggles the injected extend bug (test harness only).
func SetNarrowTailBug(on bool) { narrowTail.Store(on) }

// derive answers for the covered window minus the hidden events (IDs
// ascending) from the cached graph: the hidden vertices and their edges go,
// and each visible child of a hidden event has its in-edges re-derived over
// the events of ios that are not hidden — all of them when ios is a
// collected subset, which holds no hidden event. No other event can differ
// from a full inference of what is visible: under Rules, removing a
// candidate that did not win changes no winner (DESIGN.md §6 goes through
// the tiers); Patterns, Combined and Timestamp lack that property. The
// cache is left as it was.
func (inc *Incremental) derive(ios capture.View, hidden []uint64, base Rules) *hbg.Graph {
	start := time.Now()
	var redo []int32 // positions in ios, ascending
	for _, h := range hidden {
		for _, c := range inc.cached.Children(h) {
			if _, gone := slices.BinarySearch(hidden, c); gone {
				continue
			}
			if p := sort.Search(ios.Len(), func(i int) bool { return ios.At(i).ID >= c }); p < ios.Len() && ios.At(p).ID == c {
				redo = append(redo, int32(p))
			}
		}
	}
	slices.Sort(redo)
	redo = slices.Compact(redo) // a child of two hidden events comes up twice
	var b hbg.Batch
	if len(redo) > 0 && !staleDerive.Load() {
		visible, rest := make([]int32, 0, ios.Len()), hidden
		for i := 0; i < ios.Len(); i++ {
			id := ios.At(i).ID
			for len(rest) > 0 && rest[0] < id {
				rest = rest[1:]
			}
			if len(rest) == 0 || rest[0] != id {
				visible = append(visible, int32(i))
			}
		}
		idx := inc.index(ios, visible, math.MinInt64)
		for _, p := range redo {
			b.Reset = append(b.Reset, ios.At(int(p)).ID)
		}
		b.Edges = [][]hbg.EdgeConf{idx.runAt(redo, base.rule(idx))}
	}
	g := inc.cached.Without(hidden, b)
	inc.Metrics.Timer("infer.derived").Observe(time.Since(start))
	return g
}

// adoptableLocked reports whether a full inference over ios may replace the
// cached baseline.
func (inc *Incremental) adoptableLocked(ios capture.View) bool {
	if ios.Len() == 0 {
		return false
	}
	if inc.cached == nil {
		return true
	}
	if inc.checkpointed || ios.At(0).ID != inc.firstID {
		return false
	}
	if inc.lastID < inc.firstID {
		return true
	}
	pos := int(inc.lastID - inc.firstID)
	return pos < ios.Len() && ios.At(pos).ID == inc.lastID
}

// extend re-derives the new suffix plus the old events it can reach and folds
// the result into the cached graph, an event's whole in-edge set at a time:
//
//   - A suffix event is new: its vertex and its edges are added.
//   - An old event within the suffix's reach — a recv a later, nearer send
//     now matches, say — has its cached in-edges REPLACED by the re-derived
//     ones; a union would keep the edge the new parent displaced. Only an
//     event whose whole look-back lies inside the part of the slice known to
//     be complete is replaced; one cut short keeps what is cached.
//   - Every older event keeps its cached edges: it reads no suffix event, so
//     a re-derivation would equal what is cached.
//
// What is evaluated and indexed follows from base.reach() (DESIGN.md §6). A
// same-router candidate precedes its event in (time, ID) order, which no
// suffix event does for an old event observed before all of them; below the
// earliest suffix time an old event reads a suffix event only as the send a
// receive matches, so no earlier than tail = that time − cross. The rule runs
// from tail on. Those events match sends down to tail − cross (the send
// table's floor) and same-router candidates down to tail − near, except the
// far kinds, which are indexed as far back as the scan goes; an older event
// of any other kind is in no evaluated event's reach and is not indexed.
//
// Observed times are TrueTime ± bounded skew, so append order is only
// NEAR-sorted: a slow-clock straggler can sit later in the log than an
// in-window event. The backward scan therefore picks positions event by
// event and runs until it meets an event older than two look-backs before
// the suffix minus slack — nothing at or above that floor is appended
// before one that old when slack bounds twice the maximum skew. A scan that
// reaches the start of a never-compacted log has all of history; the start
// of a compacted window is complete from its first event on (what compaction
// evicted was older).
func (inc *Incremental) extend(ios capture.View, sufStart int, base ruler) *hbg.Graph {
	start := time.Now()
	suffix := ios.Slice(sufStart, ios.Len())
	minTime := suffix.At(0).Time
	for i := 1; i < suffix.Len(); i++ {
		minTime = min(minTime, suffix.At(i).Time)
	}
	lookback := netsim.VirtualTime(base.LookbackWindow())
	complete := minTime - 2*lookback
	scanFloor := complete - netsim.VirtualTime(skewSlack(inc.SkewSlack))
	rch := base.reach()
	tail := minTime - netsim.VirtualTime(rch.cross)
	sendFloor := tail - netsim.VirtualTime(rch.cross)
	dense := tail - netsim.VirtualTime(rch.near)
	var order []int32 // the positions in ios to index
	lo := sufStart
	for ; lo > 0 && ios.At(lo-1).Time >= scanFloor; lo-- {
		e := ios.At(lo - 1)
		isSend := e.Type == capture.SendAdvert || e.Type == capture.SendWithdraw
		if e.Time >= dense || rch.far>>e.Type&1 != 0 || isSend && e.Time >= sendFloor {
			order = append(order, int32(lo-1))
		}
	}
	if lo == 0 {
		complete = math.MinInt64
		if inc.checkpointed {
			complete = ios.At(0).Time
		}
	}
	window := ios.Slice(lo, ios.Len())
	slices.Reverse(order)
	for i := range order {
		order[i] -= int32(lo)
	}
	for p := sufStart - lo; p < window.Len(); p++ {
		order = append(order, int32(p))
	}
	idx := inc.index(window, order, sendFloor)
	if narrowTail.Load() {
		tail = minTime
	}
	from := sort.Search(idx.Len(), func(i int) bool { return idx.at(idx.order[i]).Time >= tail })
	edges := idx.runFrom(from, base.rule(idx))

	// An old event the rule ran for is replaced if its look-back is complete;
	// one cut short keeps its cached edges (IDs are dense: at id-firstOld).
	firstNew, firstOld := suffix.At(0).ID, window.At(0).ID
	cutShort := func(id uint64) bool {
		return id < firstNew && window.At(int(id-firstOld)).Time-lookback < complete
	}
	var reset []uint64
	for _, p := range idx.order[from:] {
		if id := idx.at(p).ID; id < firstNew && !cutShort(id) {
			reset = append(reset, id)
		}
	}
	for i, es := range edges {
		edges[i] = slices.DeleteFunc(es, func(e hbg.EdgeConf) bool { return cutShort(e.To) })
	}
	inc.cached.Apply(hbg.Batch{Nodes: suffix, Reset: reset, Edges: edges})
	inc.lastID = lastIDOf(ios)
	inc.Metrics.Timer("infer.incremental").Observe(time.Since(start))
	inc.Metrics.Counter("infer.suffix.ios").Add(int64(suffix.Len()))
	inc.Metrics.Counter("infer.window.ios").Add(int64(window.Len()))
	inc.Metrics.Counter("infer.indexed.ios").Add(int64(idx.Len()))
	inc.Metrics.Counter("infer.evaluated.ios").Add(int64(idx.Len() - from))
	return inc.cached
}

// skewSlack resolves a configured slack: zero selects DefaultSkewSlack, a
// negative value none.
func skewSlack(d time.Duration) time.Duration {
	switch {
	case d < 0:
		return 0
	case d == 0:
		return DefaultSkewSlack
	}
	return d
}

// RetentionFloor is the least observed-time depth behind the newest event a
// compaction may keep when s is extended with the given slack: one look-back
// plus twice the slack; ok is false when s exposes no look-back bound. extend
// re-derives a tail event from candidates up to its reach's cross window
// further back, so 2·slack must be at least that (the default 1 s and
// verifyd's 400 ms are, against 500 ms): otherwise a tail event's reach can
// dip below the floor and is left un-replaced as incomplete.
func RetentionFloor(s Strategy, slack time.Duration) (floor time.Duration, ok bool) {
	lb, ok := s.(Lookbacker)
	if !ok {
		return 0, false
	}
	return lb.LookbackWindow() + 2*skewSlack(slack), true
}

// index builds the shared index for one log generation: of all of ios, or
// (extend) of the given positions and the sends from sendFloor on. Sorting
// its positions is the only sort the whole inference pays.
func (inc *Incremental) index(ios capture.View, order []int32, sendFloor netsim.VirtualTime) *Index {
	start := time.Now()
	idx := newIndex(ios, order, sendFloor)
	inc.Metrics.Timer("hbr.infer.index.build").Observe(time.Since(start))
	inc.Metrics.Counter("hbr.infer.index.builds").Inc()
	inc.Metrics.Counter("hbr.infer.index.ios").Add(int64(idx.Len()))
	return idx
}

func lastIDOf(ios capture.View) uint64 {
	if ios.Len() == 0 {
		return 0
	}
	return ios.At(ios.Len() - 1).ID
}
