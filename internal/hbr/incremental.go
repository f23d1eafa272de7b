// Incremental inference: the control-plane integration of §5 makes HBG
// inference a hot path — every verification tick re-asks for the graph —
// yet the capture log is append-only and every rule's reach is bounded by
// a look-back window. Incremental exploits both: it caches the inferred
// graph keyed on the covered log window and, when new I/Os arrive, re-runs
// the rules only over the new suffix plus the old events they can reach,
// adding the new events and replacing the in-edge sets the suffix changed
// instead of rebuilding the graph from scratch.
//
// Coverage is tracked by event ID rather than slice position, so the cache
// survives log compaction: after the capture window's prefix is evicted,
// "checkpoint graph + retained window" remains a valid baseline
// (SeedCheckpoint / Compact below).

package hbr

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/fault"
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

// Incremental is the rule-matching strategy (Rules) behind a graph cache
// over the append-only capture log.
//
//   - Same window as last time (endpoint IDs and length match): return the
//     cached graph untouched — a cache hit.
//   - The window grew at the tail and its covered prefix is unchanged: run
//     the rules over the new suffix plus the old events within their reach,
//     add the suffix's vertices and edges to the cached graph, and replace
//     the in-edges of those older events (extend).
//   - The covered window with events missing — a cut-filtered snapshot
//     collection — and the cache holds no folded history: answer with the
//     cached graph minus the missing vertices, re-deriving only their
//     children (derive), WITHOUT disturbing the cache.
//   - Anything else (a different prefix): a one-off full inference that
//     leaves the cache as it was, so snapshot sweeps cannot poison the
//     pipeline's incremental state.
//
// Because coverage is keyed on event IDs, log compaction composes with the
// cache: Compact folds a log's window, evicts its old prefix and moves the
// covered window's left edge forward (CompactBaseline prunes the cached
// graph, folding root causes), after which Infer calls over the retained
// window extend the checkpointed graph exactly as if the evicted prefix were
// still present.
//
// Incremental is safe for concurrent use. The returned *hbg.Graph is shared
// across calls; hbg.Graph is itself concurrency-safe.
type Incremental struct {
	// Rules is the wrapped strategy; its windows bound every rule's reach.
	Rules Rules
	// Metrics optionally receives infer.full / infer.incremental timers and
	// infer.cache.* counters.
	Metrics *metrics.Registry
	// SkewSlack widens the look-back scan to tolerate clock skew between
	// routers (see DefaultSkewSlack). Zero, or any value that is not
	// positive, selects the default.
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

// NewIncremental wraps rules. A nil registry disables metrics.
func NewIncremental(rules Rules, reg *metrics.Registry) *Incremental {
	return &Incremental{Rules: rules, Metrics: reg}
}

// Name is the strategy's name, as Pipeline.Summary prints it.
func (inc *Incremental) Name() string { return "incremental(rules)" }

// Invalidate drops the cached graph; the next Infer performs a full
// inference. Pipeline.DetectAndRepair calls this after a rollback to free
// the graph while the network reconverges, not for correctness: a rollback
// only appends to the log, and an extension equals a full inference
// (TestExtendChunkedGrowthMatchesFull).
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
// answers are preserved). Compact calls it after folding the evicted events'
// edges into the cache and before — after is as safe — the log's own
// CompactBefore. No-op if the cache is cold or already past the floor.
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

// Infer is InferView over a slice.
func (inc *Incremental) Infer(ios []capture.IO) *hbg.Graph { return inc.InferView(capture.ViewOf(ios)) }

// InferView is Infer over a view, read in place: the case a log's own
// window takes (stream.Daemon, Pipeline).
func (inc *Incremental) InferView(ios capture.View) *hbg.Graph {
	inc.mu.Lock()
	defer inc.mu.Unlock()

	if inc.cached != nil && inc.matchesCoveredLocked(ios) {
		inc.Metrics.Counter("infer.cache.hits").Inc()
		return inc.cached
	}
	if inc.cached != nil {
		if fault.On(fault.StaleCache) {
			return inc.cached
		}
		// Append-only growth of the covered window?
		if sufStart, ok := inc.extensionStartLocked(ios); ok {
			return inc.extend(ios, sufStart)
		}
		if !inc.checkpointed {
			if hidden, ok := inc.missingLocked(ios); ok {
				return inc.derive(ios, hidden)
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
	g := inc.Rules.inferIndex(inc.index(ios, nil, math.MinInt64))
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

// derive answers for the covered window minus the hidden events (IDs
// ascending) from the cached graph, ios being the events left: the hidden
// vertices and their edges go, and each child of a hidden event that ios
// holds has its in-edges re-derived over ios. No other event can differ
// from a full inference of ios: under Rules, removing a candidate that did
// not win changes no winner (DESIGN.md §6 goes through the tiers). The cache
// is left as it was.
func (inc *Incremental) derive(ios capture.View, hidden []uint64) *hbg.Graph {
	start := time.Now()
	var redo []int32 // positions in ios, ascending
	for _, h := range hidden {
		for _, c := range inc.cached.Children(h) {
			if p := sort.Search(ios.Len(), func(i int) bool { return ios.At(i).ID >= c }); p < ios.Len() && ios.At(p).ID == c {
				redo = append(redo, int32(p))
			}
		}
	}
	slices.Sort(redo)
	redo = slices.Compact(redo) // a child of two hidden events comes up twice
	var b hbg.Batch
	if len(redo) > 0 && !fault.On(fault.StaleDerive) {
		idx := inc.index(ios, nil, math.MinInt64)
		for _, p := range redo {
			b.Reset = append(b.Reset, ios.At(int(p)).ID)
		}
		b.Edges = [][]hbg.Edge{idx.runAt(redo, inc.Rules.rule(idx))}
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
// What is evaluated and indexed follows from the rules' windows (DESIGN.md
// §6): a receive matches sends within cross = CrossWindow to either side,
// and every same-router tier looks back near = Window, except that config
// changes match out to ConfigWindow. A same-router candidate precedes its
// event in (time, ID) order, which no suffix event does for an old event
// observed before all of them; below the earliest suffix time an old event
// reads a suffix event only as the send a receive matches, so no earlier
// than tail = that time − cross. The rule runs from tail on. Those events
// match sends down to tail − cross (the send table's floor) and same-router
// candidates down to tail − near, except config changes, which are indexed
// as far back as the scan goes; an older event of any other kind is in no
// evaluated event's reach and is not indexed.
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
func (inc *Incremental) extend(ios capture.View, sufStart int) *hbg.Graph {
	start := time.Now()
	suffix := ios.Slice(sufStart, ios.Len())
	minTime := suffix.At(0).Time
	for i := 1; i < suffix.Len(); i++ {
		minTime = min(minTime, suffix.At(i).Time)
	}
	near, _, cross := inc.Rules.windows()
	lookback := netsim.VirtualTime(inc.Rules.LookbackWindow())
	complete := minTime - 2*lookback
	scanFloor := complete - netsim.VirtualTime(skewSlack(inc.SkewSlack))
	tail := minTime - netsim.VirtualTime(cross)
	sendFloor := tail - netsim.VirtualTime(cross)
	dense := tail - netsim.VirtualTime(near)
	var order []int32 // the positions in ios to index
	lo := sufStart
	for ; lo > 0 && ios.At(lo-1).Time >= scanFloor; lo-- {
		e := ios.At(lo - 1)
		isSend := e.Type == capture.SendAdvert || e.Type == capture.SendWithdraw
		if e.Time >= dense || e.Type == capture.ConfigChange || isSend && e.Time >= sendFloor {
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
	if fault.On(fault.NarrowTail) {
		tail = minTime
	}
	from := sort.Search(idx.Len(), func(i int) bool { return idx.at(idx.order[i]).Time >= tail })
	edges := idx.runFrom(from, inc.Rules.rule(idx))

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
		edges[i] = slices.DeleteFunc(es, func(e hbg.Edge) bool { return cutShort(e.To) })
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

// skewSlack resolves a configured slack: one that is not positive selects
// DefaultSkewSlack.
func skewSlack(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultSkewSlack
	}
	return d
}

// Compact bounds log to what inference still needs. It folds the window into
// the cache, then evicts every event observed more than one look-back plus
// twice the skew slack behind the newest one and moves the cached baseline
// past them (CompactBaseline), so the graph keeps answering for retained
// events as if the evicted prefix were still present. It returns the folded
// graph (nil for an empty log) and the number of events evicted. extend
// re-derives a tail event from candidates up to CrossWindow further back, so
// 2·slack must be at least that (the default 1 s and verifyd's 400 ms are,
// against 500 ms): otherwise a tail event's reach can dip below the floor and
// is left un-replaced as incomplete. The floor trails the newest event's
// observed time, so the log must be appended in observed time give or take
// the skew slack, as a simulator's capture log and the stream daemon's merge
// both are.
func (inc *Incremental) Compact(log *capture.Log) (*hbg.Graph, int) {
	win := log.View()
	if win.Len() == 0 {
		return nil, 0
	}
	var g *hbg.Graph
	if !fault.On(fault.SkipFold) {
		g = inc.InferView(win)
	}
	retain := inc.Rules.LookbackWindow() + 2*skewSlack(inc.SkewSlack)
	floor := win.At(win.Len()-1).Time - netsim.VirtualTime(retain)
	cut := 0
	for cut < win.Len() && win.At(cut).Time < floor {
		cut++
	}
	if cut == 0 {
		return g, 0
	}
	inc.CompactBaseline(win.At(cut).ID)
	return g, log.CompactBefore(win.At(cut).ID)
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
