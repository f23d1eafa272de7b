// Incremental inference: the control-plane integration of §5 makes HBG
// inference a hot path — every verification tick re-asks for the graph —
// yet the capture log is append-only, every same-router rule's reach is
// bounded by a look-back window, and a receive's send is its place on its
// channel. Incremental exploits all three: it caches the inferred graph
// keyed on the covered log window, with the channel table as that window
// leaves it, and when new I/Os arrive it pairs the new suffix's messages on
// the table and re-runs the rules only over the suffix plus the old events
// they can reach, adding the new events and replacing the in-edge sets the
// suffix changed instead of rebuilding the graph from scratch.
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
//   - The window grew at the tail and its covered prefix is unchanged: pair
//     the suffix's messages on the cached channel table, run the rules over
//     the new suffix plus the old events within their reach, add the
//     suffix's vertices and edges to the cached graph, and replace the
//     in-edges of those older events (extend).
//   - The covered window with a suffix of some routers' events missing — a
//     cut's snapshot collection — and the cache holds no folded history:
//     answer with the cached graph minus the missing vertices (derive),
//     WITHOUT disturbing the cache.
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

	mu     sync.Mutex
	cached *hbg.Graph
	// channels is the channel table as the covered window leaves it, keyed
	// by event ID; it is nil exactly when cached is.
	channels *Channels
	firstID  uint64 // ID the covered window starts at
	lastID   uint64 // last covered ID; coverage is empty when lastID < firstID
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
	inc.cached, inc.channels, inc.firstID, inc.lastID, inc.checkpointed = nil, nil, 0, 0, false
	inc.mu.Unlock()
	inc.Metrics.Counter("infer.cache.invalidations").Inc()
}

// SeedCheckpoint installs a recovered graph and channel table as the cache
// baseline. firstRetainedID is the ID the retained capture window now
// starts at (lastID+1 when the window is empty) and lastID is the last event
// the graph's edges and the table account for. Subsequent Infer calls over
// the retained window extend g incrementally instead of re-inferring from
// scratch — which they could not do anyway, since the pre-checkpoint events
// are gone.
func (inc *Incremental) SeedCheckpoint(g *hbg.Graph, ch *Channels, firstRetainedID, lastID uint64) {
	inc.mu.Lock()
	inc.cached, inc.channels, inc.firstID, inc.lastID = g, ch, firstRetainedID, lastID
	inc.checkpointed = true
	inc.mu.Unlock()
	inc.Metrics.Counter("infer.cache.seeded").Inc()
}

// AppendChannels appends the cached channel table's encoding
// (Channels.AppendTo; an empty table's when the cache is cold) to b: what a
// checkpoint must carry for SeedCheckpoint to resume pairing where the
// covered window left it.
func (inc *Incremental) AppendChannels(b []byte) []byte {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.channels == nil {
		return newChannels().AppendTo(b)
	}
	return inc.channels.AppendTo(b)
}

// CompactBaseline records that the capture log evicted all events below
// firstRetainedID and prunes the cached graph to match (folding the evicted
// vertices' root causes into their in-window successors, so RootCauses
// answers are preserved) and the channel table (Channels.forget). Compact
// calls it after folding the evicted events' edges into the cache and
// before — after is as safe — the log's own CompactBefore. No-op if the
// cache is cold or already past the floor.
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
	inc.channels.forget(firstRetainedID)
	inc.Metrics.Counter("infer.cache.compactions").Inc()
}

// Infer is InferView over a slice, which the same contract covers.
func (inc *Incremental) Infer(ios []capture.IO) *hbg.Graph { return inc.InferView(capture.ViewOf(ios)) }

// InferView is Infer over a view, read in place: the case a log's own
// window takes (stream.Daemon, Pipeline). The graph's vertices point into
// ios — a cached graph's, into every view that extended it — so nobody may
// write ios while the graph, or a cache that adopted it, is in use; a log's
// segments are written once per slot, so its views qualify.
func (inc *Incremental) InferView(ios capture.View) *hbg.Graph {
	inc.mu.Lock()
	defer inc.mu.Unlock()

	if inc.cached != nil && inc.matchesCoveredLocked(ios) {
		inc.Metrics.Counter("infer.cache.hits").Inc()
		return inc.cached
	}
	if inc.cached != nil {
		// Append-only growth of the covered window?
		if sufStart, ok := inc.extensionStartLocked(ios); ok {
			return inc.extend(ios, sufStart)
		}
		if !inc.checkpointed {
			if hidden, ok := inc.missingLocked(ios); ok && inc.cutLocked(ios, hidden) {
				return inc.derive(hidden)
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
	g, ch, visits := inc.Rules.infer(ios, inc.index)
	inc.Metrics.Histogram("infer.full").Observe(time.Since(start))
	inc.Metrics.Counter("hbr.infer.candidates").Add(visits)
	inc.Metrics.Counter("infer.cache.misses").Inc()
	if inc.adoptableLocked(ios) {
		inc.cached, inc.channels, inc.firstID, inc.lastID = g, ch, ios.At(0).ID, lastIDOf(ios)
		inc.Metrics.Counter("hbr.channel_desync").Add(int64(ch.desync))
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

// cutLocked reports whether the hidden events (IDs ascending) are, for
// every router, a suffix of its events in the covered window both in log
// order and in observed time — what a cut hides on a router whose clock runs
// forward. Then no event ios keeps has a hidden parent: a same-router parent
// precedes its child in time, and a receive keeps its place on its channel.
func (inc *Incremental) cutLocked(ios capture.View, hidden []uint64) bool {
	type bound struct {
		id uint64             // the router's first hidden event
		at netsim.VirtualTime // and its earliest hidden time
	}
	hid := map[string]bound{}
	for _, h := range hidden {
		io, _ := inc.cached.Node(h)
		b, seen := hid[io.Router]
		if !seen {
			b = bound{h, io.Time}
		}
		b.at = min(b.at, io.Time)
		hid[io.Router] = b
	}
	for i := 0; i < ios.Len(); i++ {
		io := ios.At(i)
		if b, ok := hid[io.Router]; ok && (io.ID > b.id || io.Time > b.at) {
			return false
		}
	}
	return true
}

// derive answers for the covered window minus a cut's hidden events (IDs
// ascending, see cutLocked) from the cached graph, with no inference: the
// hidden vertices and their edges go and nothing else changes, because no
// event left has a hidden parent and, under Rules, removing a candidate
// that did not win changes no winner (DESIGN.md §6). The cache is left as it
// was.
func (inc *Incremental) derive(hidden []uint64) *hbg.Graph {
	start := time.Now()
	g := inc.cached.Without(hidden)
	inc.Metrics.Histogram("infer.derived").Observe(time.Since(start))
	return g
}

// adoptableLocked reports whether a full inference over ios may replace the
// cached baseline. IDs are dense, so a view with holes (a snapshot cut)
// spans more IDs than it holds: its graph does not cover its own span.
func (inc *Incremental) adoptableLocked(ios capture.View) bool {
	if ios.Len() == 0 || lastIDOf(ios)-ios.At(0).ID+1 != uint64(ios.Len()) {
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

// extend pairs the new suffix's messages on the channel table, re-derives
// the suffix plus the old events it can reach, and folds the result into the
// cached graph, an event's whole in-edge set at a time:
//
//   - A suffix event is new: its vertex and its edges are added.
//   - A suffix send that pairs with an old receive waiting on the table adds
//     exactly that one edge: a receive's only in-edge is its send, and the
//     table gives it once.
//   - Any other old event within the suffix's reach has its cached in-edges
//     REPLACED by the re-derived ones. Only an event whose whole look-back
//     lies inside the part of the slice known to be complete is replaced; one
//     cut short keeps what is cached.
//   - Every older event keeps its cached edges: it reads no suffix event, so
//     a re-derivation would equal what is cached.
//
// What is evaluated and indexed follows from the rules' windows (DESIGN.md
// §6): every same-router tier looks back near = Window, except that config
// changes match out to ConfigWindow. A same-router candidate precedes its
// event in (time, ID) order, which no suffix event does for an old event
// observed before all of them, so the rule runs from tail = the earliest
// suffix time on. Those events match same-router candidates down to
// tail − near, except config changes, which are indexed as far back as the
// scan goes; an older event of any other kind is in no evaluated event's
// reach and is not indexed.
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
	tail := suffix.At(0).Time
	for i := 1; i < suffix.Len(); i++ {
		tail = min(tail, suffix.At(i).Time)
	}
	near, _ := inc.Rules.windows()
	lookback := netsim.VirtualTime(inc.Rules.LookbackWindow())
	complete := tail - 2*lookback
	scanFloor := complete - netsim.VirtualTime(skewSlack(inc.SkewSlack))
	dense := tail - netsim.VirtualTime(near)
	var order []int32 // the positions in ios to index
	lo := sufStart
	for ; lo > 0 && ios.At(lo-1).Time >= scanFloor; lo-- {
		if e := ios.At(lo - 1); e.Time >= dense || e.Type == capture.ConfigChange {
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
	idx := inc.index(window, order)

	// Pair the suffix's messages: a receive's in-edge is its send, given
	// once. The table holds nothing compaction evicted (Channels.forget).
	var paired []hbg.Edge
	pair := func(send, recv uint64) { paired = append(paired, hbg.Edge{From: send, To: recv}) }
	desync := inc.channels.desync
	for i := 0; i < suffix.Len(); i++ {
		inc.channels.feed(suffix.At(i), suffix.At(i).ID, pair)
	}
	inc.Metrics.Counter("hbr.channel_desync").Add(int64(inc.channels.desync - desync))

	from := sort.Search(idx.Len(), func(i int) bool { return idx.at(idx.order[i]).Time >= tail })
	edges, visits := idx.runFrom(from, inc.Rules.rule(idx))
	inc.Metrics.Counter("hbr.infer.candidates").Add(visits)

	// An old event the rule ran for is replaced if its look-back is complete;
	// one cut short keeps its cached edges. An old receive keeps its send.
	firstNew, firstOld := suffix.At(0).ID, window.At(0).ID
	cutShort := func(id uint64) bool {
		return id < firstNew && window.At(int(id-firstOld)).Time-lookback < complete
	}
	var reset []uint64
	for _, p := range idx.order[from:] {
		if io := idx.at(p); io.ID < firstNew && !cutShort(io.ID) && io.Type != capture.RecvAdvert && io.Type != capture.RecvWithdraw {
			reset = append(reset, io.ID)
		}
	}
	for i, es := range edges {
		edges[i] = slices.DeleteFunc(es, func(e hbg.Edge) bool { return cutShort(e.To) })
	}
	inc.cached.Apply(hbg.Batch{Nodes: suffix, Reset: reset, Edges: append(edges, paired)})
	inc.lastID = lastIDOf(ios)
	inc.Metrics.Histogram("infer.incremental").Observe(time.Since(start))
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
// events as if the evicted prefix were still present; of the evicted prefix
// the channel table keeps only the epochs it opened. It returns the folded
// graph (nil for an empty log) and the number of events evicted. The floor
// trails the newest event's observed time, so the log must be appended in
// observed time give or take the skew slack, as a simulator's capture log
// and the stream daemon's merge both are.
func (inc *Incremental) Compact(log *capture.Log) (*hbg.Graph, int) {
	win := log.View()
	if win.Len() == 0 {
		return nil, 0
	}
	g := inc.InferView(win)
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
// (extend) of the given positions. Sorting its positions is the only sort
// the whole inference pays.
func (inc *Incremental) index(ios capture.View, order []int32) *Index {
	start := time.Now()
	idx := newIndex(ios, order)
	inc.Metrics.Histogram("hbr.infer.index.build").Observe(time.Since(start))
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
