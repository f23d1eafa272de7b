// Package stream is the always-on ingestion layer of the control-plane
// integration (§5): a Daemon consumes N per-router log streams
// concurrently, merges them into one deterministic capture order, keeps
// the happens-before graph current through incremental inference, and
// bounds memory by periodically compacting the capture window into a
// checkpoint (serialized pruned graph + retained event window + per-stream
// resume positions). Reopening the checkpoint after a crash reproduces the
// exact state of an uninterrupted run.
//
// Merge determinism is what makes crash recovery testable: buffered events
// are released in (observed time, router) order via a k-way merge that
// only advances when every open stream has data, so the capture order — and
// therefore every inferred edge and every compaction floor — is a pure
// function of the stream contents, not of goroutine scheduling.
package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/ciscolog"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/netsim"
	"hbverify/internal/wire"
)

// streamMagic heads the daemon checkpoint envelope; the per-stream resume
// positions precede an embedded hbg checkpoint.
const streamMagic = "STRMCKP1"

// Options configures a Daemon.
type Options struct {
	// Strategy is the inference strategy (default hbr.Rules{}). Compaction
	// requires it to implement hbr.Lookbacker; otherwise Compact is a
	// no-op, since no sound eviction floor exists.
	Strategy hbr.Strategy
	// Metrics optionally receives stream.* and infer.* instruments.
	Metrics *metrics.Registry
	// Retain keeps at least this much observed time in the capture window
	// beyond the soundness floor (lookback + 2×skew slack).
	Retain time.Duration
	// SkewSlack bounds router clock disagreement (default
	// hbr.DefaultSkewSlack); it widens both the incremental look-back scan
	// and the compaction floor.
	SkewSlack time.Duration
	// CheckpointPath, when non-empty, is where compaction checkpoints are
	// written (atomically, via rename) and where New looks for state to
	// recover.
	CheckpointPath string
	// CompactEvery triggers a compaction each time the total number of
	// ingested events crosses a multiple of it; 0 disables automatic
	// compaction.
	CompactEvery uint64
	// Resolve maps peer session addresses to router names for the parser.
	Resolve ciscolog.Resolver
	// BufferCap bounds each stream's merge buffer (default 1024); a full
	// buffer blocks that stream's reader until the merger drains it.
	BufferCap int
}

// Stream is one registered per-router log source.
type Stream struct {
	d      *Daemon
	name   string
	buf    []capture.IO
	head   int
	closed bool
	// consumed counts parsed events accepted from this stream since its
	// very first byte ever — including events skipped on resume — so it is
	// directly comparable across restarts.
	consumed int
	skip     int // events to discard on resume (already in the checkpoint)
}

// Daemon ingests router log streams into a windowed capture log with
// incremental inference and checkpointed compaction.
type Daemon struct {
	opts Options

	log *capture.Log
	inc *hbr.Incremental

	mu      sync.Mutex
	cond    *sync.Cond
	streams map[string]*Stream
	order   []string
	started bool
	err     error

	// opMu serializes appends and compactions so snapshots taken during
	// compaction are stable.
	opMu sync.Mutex

	startOnce  sync.Once
	mergerDone chan struct{}

	recovered map[string]int // resume positions from the checkpoint; nil without one

	// skipFold simulates the fold-before-evict bug for the scenario
	// harness: compaction evicts events without folding their edges into
	// the cached graph first. Test hook only.
	skipFold bool
}

// New builds a daemon, recovering from Options.CheckpointPath if a
// checkpoint exists there. Register every stream before consuming any.
func New(opts Options) (*Daemon, error) {
	if opts.Strategy == nil {
		opts.Strategy = hbr.Rules{}
	}
	if opts.BufferCap <= 0 {
		opts.BufferCap = 1024
	}
	d := &Daemon{
		opts:       opts,
		streams:    map[string]*Stream{},
		mergerDone: make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	d.inc = hbr.NewIncremental(opts.Strategy, opts.Metrics)
	d.inc.SkewSlack = opts.SkewSlack

	if opts.CheckpointPath != "" {
		data, err := os.ReadFile(opts.CheckpointPath)
		switch {
		case err == nil:
			if err := d.recover(data); err != nil {
				return nil, fmt.Errorf("stream: recover %s: %w", opts.CheckpointPath, err)
			}
			opts.Metrics.Counter("stream.recoveries").Inc()
		case errors.Is(err, fs.ErrNotExist):
			d.log = capture.NewLog()
		default:
			return nil, err
		}
	} else {
		d.log = capture.NewLog()
	}
	return d, nil
}

// recover restores log, inference cache, and stream positions from the
// contents of a checkpoint file. Nothing is installed until every byte has
// decoded and the window has been validated, so a corrupt file is an error
// from New, never a daemon on half of it.
func (d *Daemon) recover(data []byte) error {
	positions, cp, err := decodeEnvelope(data)
	if err != nil {
		return err
	}
	if len(cp.Retained) > 0 && cp.Retained[0].ID != cp.FirstRetainedID {
		return fmt.Errorf("retained window starts at %d, watermark says %d",
			cp.Retained[0].ID, cp.FirstRetainedID)
	}
	nextID := uint64(0)
	if len(cp.Retained) == 0 {
		nextID = cp.LastID + 1
	}
	log, err := capture.RestoreLog(cp.Retained, nextID)
	if err != nil {
		return err
	}
	d.log, d.recovered = log, positions
	d.inc.SeedCheckpoint(cp.Graph, cp.FirstRetainedID, cp.LastID)
	return nil
}

// decodeEnvelope parses a checkpoint file — bytes a crash left behind —
// through the bounded wire reader: the magic, the per-stream resume
// positions, then the embedded hbg checkpoint, which must end the file.
func decodeEnvelope(data []byte) (map[string]int, *hbg.Checkpoint, error) {
	r := wire.NewReader(data)
	if magic := r.Take(len(streamMagic)); string(magic) != streamMagic {
		return nil, nil, fmt.Errorf("bad magic %q", magic)
	}
	positions := map[string]int{}
	// A position is at least a name length and a count.
	for i := r.Count("stream", 2); i > 0 && r.Err() == nil; i-- {
		name, pos := r.Str(), r.Uvarint()
		if pos > math.MaxInt {
			return nil, nil, fmt.Errorf("stream %q: position %d does not fit an int", name, pos)
		}
		positions[name] = int(pos)
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	cp, err := hbg.DecodeCheckpoint(bytes.NewReader(r.Take(r.Len())))
	return positions, cp, err
}

// Register adds a per-router stream. All registrations must complete
// before any Consume call starts; the merger treats the registered set as
// the universe it must hear from before releasing events.
func (d *Daemon) Register(router string) *Stream {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.streams[router]; ok {
		return s
	}
	s := &Stream{d: d, name: router, skip: d.recovered[router], consumed: d.recovered[router]}
	d.streams[router] = s
	d.order = append(d.order, router)
	sort.Strings(d.order)
	return s
}

// Consume parses r as the stream's router log and feeds it into the merge.
// On resume, events already covered by the recovered checkpoint are parsed
// and discarded. Consume blocks until the reader is exhausted (or errors)
// and is typically run in its own goroutine, one per stream.
func (s *Stream) Consume(r io.Reader) error {
	d := s.d
	d.startOnce.Do(func() {
		d.mu.Lock()
		d.started = true
		d.mu.Unlock()
		go d.merge()
	})
	p := ciscolog.NewParser(d.opts.Resolve)
	p.Metrics = d.opts.Metrics
	skip := s.skip
	err := p.ParseReader(s.name, r, func(io capture.IO) error {
		if skip > 0 {
			skip--
			return nil
		}
		return s.push(io)
	})
	d.mu.Lock()
	s.closed = true
	if s.head == len(s.buf) {
		s.buf, s.head = nil, 0 // drained: a finished stream keeps no buffer
	}
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("stream %s: %w", s.name, err)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	return err
}

func (s *Stream) push(io capture.IO) error {
	d := s.d
	d.mu.Lock()
	for len(s.buf)-s.head >= d.opts.BufferCap {
		d.cond.Wait()
	}
	if s.head > 0 && len(s.buf) == cap(s.buf) {
		// Reclaim the consumed prefix instead of growing: without this
		// the backing array pins every event ever pushed, because with
		// concurrent producers the buffer almost never drains to empty.
		n := copy(s.buf, s.buf[s.head:])
		clear(s.buf[n:])
		s.buf, s.head = s.buf[:n], 0
	}
	s.buf = append(s.buf, io)
	d.cond.Broadcast()
	d.mu.Unlock()
	return nil
}

// pickLocked selects the next stream to pop from: the one whose head event
// is least by (observed time, router name). It returns done=true when
// every stream is closed with an empty buffer, and blocks (nil, false)
// while any open stream has nothing buffered — the low-watermark rule that
// makes the merge order deterministic.
func (d *Daemon) pickLocked() (best *Stream, done bool) {
	if !d.started {
		return nil, false
	}
	done = true
	for _, name := range d.order {
		s := d.streams[name]
		if s.head == len(s.buf) {
			if !s.closed {
				return nil, false
			}
			continue
		}
		done = false
		if best == nil {
			best = s
			continue
		}
		h, bh := s.buf[s.head], best.buf[best.head]
		if h.Time < bh.Time || (h.Time == bh.Time && s.name < best.name) {
			best = s
		}
	}
	return best, done
}

// merge is the single appender: it releases buffered events in
// deterministic order, appends them to the capture log, and triggers
// compaction at CompactEvery boundaries.
func (d *Daemon) merge() {
	defer close(d.mergerDone)
	for {
		d.mu.Lock()
		var s *Stream
		for {
			best, done := d.pickLocked()
			if done {
				d.mu.Unlock()
				return
			}
			if best != nil {
				s = best
				break
			}
			d.cond.Wait()
		}
		io := s.buf[s.head]
		s.buf[s.head] = capture.IO{}
		s.head++
		if s.head == len(s.buf) {
			s.buf, s.head = s.buf[:0], 0
			if s.closed {
				s.buf = nil // a finished stream keeps no buffer
			}
		}
		s.consumed++
		d.cond.Broadcast()
		d.mu.Unlock()

		d.opMu.Lock()
		d.log.Append(io)
		d.opts.Metrics.Counter("stream.ingested").Inc()
		if every := d.opts.CompactEvery; every > 0 && d.log.TotalAppended()%every == 0 {
			if err := d.compact(); err != nil {
				d.mu.Lock()
				if d.err == nil {
					d.err = err
				}
				d.mu.Unlock()
			}
		}
		d.opMu.Unlock()
	}
}

// Wait blocks until every registered stream has been consumed and merged,
// then returns the first ingestion or compaction error. At least one
// Consume must have been started.
func (d *Daemon) Wait() error {
	<-d.mergerDone
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Graph returns the happens-before graph over the currently retained
// window (plus, after compaction, the folded history in the cached
// baseline).
func (d *Daemon) Graph() *hbg.Graph {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.inc.InferView(d.log.View())
}

// Log exposes the daemon's capture log (read-side use only).
func (d *Daemon) Log() *capture.Log { return d.log }

// Positions reports, per stream, how many events have been merged into the
// capture log since each stream's first byte ever — the coordinates a
// restarted daemon resumes from.
func (d *Daemon) Positions() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int, len(d.streams))
	for name, s := range d.streams {
		out[name] = s.consumed
	}
	return out
}

// Compact folds the retained window into the cached graph, evicts every
// event older than the soundness floor, and writes a checkpoint. Safe to
// call concurrently with ingestion (it serializes against the merger); the
// merger also calls it automatically at CompactEvery boundaries.
func (d *Daemon) Compact() error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.compact()
}

// retention returns the observed-time depth the window must keep, or
// ok=false when the strategy exposes no look-back bound (no sound floor).
func (d *Daemon) retention() (time.Duration, bool) {
	floor, ok := hbr.RetentionFloor(d.opts.Strategy, d.opts.SkewSlack)
	return max(floor, d.opts.Retain), ok
}

// compact runs with opMu held.
func (d *Daemon) compact() error {
	retain, ok := d.retention()
	if !ok {
		d.opts.Metrics.Counter("stream.compact.unbounded").Inc()
		return nil
	}
	win := d.log.View()
	if win.Len() == 0 {
		return nil
	}
	var g *hbg.Graph
	if !d.skipFold {
		g = d.inc.InferView(win)
	}
	// The merge releases events in observed-time order, so the last
	// retained event's time is the global low watermark: nothing appended
	// later can look back past lastTime-retain.
	floor := win.At(win.Len()-1).Time - netsim.VirtualTime(retain)
	cut := 0
	for cut < win.Len() && win.At(cut).Time < floor {
		cut++
	}
	if cut > 0 {
		evictBelow := win.At(cut).ID
		d.inc.CompactBaseline(evictBelow)
		d.log.CompactBefore(evictBelow)
		d.opts.Metrics.Counter("stream.compact.evicted").Add(int64(cut))
	}
	d.opts.Metrics.Counter("stream.compactions").Inc()
	if g == nil {
		return nil
	}
	return d.writeCheckpoint(g)
}

// writeCheckpoint persists positions + graph + retained window atomically
// (temp file, then rename). Runs with opMu held, so the log is stable.
func (d *Daemon) writeCheckpoint(g *hbg.Graph) error {
	path := d.opts.CheckpointPath
	if path == "" {
		return nil
	}
	cp := &hbg.Checkpoint{
		Graph:           g,
		LastID:          d.log.TotalAppended(),
		FirstRetainedID: d.log.FirstID(),
		// A flat copy of the window, kept only while it is encoded: the file
		// holds the events themselves.
		Retained: d.log.Snapshot(),
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := encodeEnvelope(f, d.Positions(), cp); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d.opts.Metrics.Counter("stream.checkpoints").Inc()
	return nil
}

// encodeEnvelope is decodeEnvelope's inverse; names are written sorted.
func encodeEnvelope(w io.Writer, positions map[string]int, cp *hbg.Checkpoint) error {
	names := make([]string, 0, len(positions))
	for name := range positions {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := binary.AppendUvarint([]byte(streamMagic), uint64(len(names)))
	for _, name := range names {
		buf = wire.AppendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(positions[name]))
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return cp.Encode(w)
}
