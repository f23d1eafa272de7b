// Package stream is the always-on ingestion layer of the control-plane
// integration (§5): a Daemon consumes N per-router log streams
// concurrently, merges them into one deterministic capture order, keeps
// the happens-before graph current through incremental inference, and
// bounds memory by periodically compacting the capture window into a
// checkpoint (serialized pruned graph + retained event window + channel
// table + per-stream resume positions). Reopening the checkpoint after a
// crash reproduces the exact state of an uninterrupted run.
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
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/ciscolog"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/wire"
)

// streamMagic heads the daemon checkpoint envelope; the per-stream resume
// positions and the inference's channel table precede an embedded hbg
// checkpoint. Version 1 carried no channel table.
const streamMagic = "STRMCKP2"

// Options configures a Daemon.
type Options struct {
	// Strategy is the rule-matching inference behind the daemon's cache; its
	// windows bound the compaction floor. The zero value is the defaults.
	Strategy hbr.Rules
	// Metrics optionally receives stream.* and infer.* instruments.
	Metrics *metrics.Registry
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
	// Neighbor maps routers' interfaces to their links' far ends for the
	// parser. Without it a logged link-down opens no epoch on its IGP
	// channels: a message lost with the link counts as a channel desync
	// (hbr.channel_desync) or, when a later message repeats its key, takes
	// that message's receive.
	Neighbor ciscolog.Neighbor
}

// defaultBufferCap bounds each stream's merge buffer; a full buffer blocks
// that stream's reader until the merger drains it.
const defaultBufferCap = 1024

// Events cross each hand-off in runs: a reader parses up to batchCap events
// before it pushes them, and the merger moves up to runCap events into the
// log per append. Neither changes the merge order, only how often the
// daemon's locks are taken.
const (
	batchCap = 256
	runCap   = 1024
)

// Stream is one registered per-router log source.
type Stream struct {
	d      *Daemon
	name   string
	buf    []capture.IO
	head   int
	closed bool
	// consumed counts parsed events accepted from this stream since its
	// very first byte ever — including events skipped on resume — so it is
	// directly comparable across restarts. It counts only events already in
	// the log, so a checkpoint never resumes past what it holds.
	consumed int
	skip     int // events to discard on resume (already in the checkpoint)
	run      int // events in the merger's current run, not yet in the log
}

// Daemon ingests router log streams into a windowed capture log with
// incremental inference and checkpointed compaction.
type Daemon struct {
	opts      Options
	bufferCap int

	log *capture.Log
	inc *hbr.Incremental

	mu      sync.Mutex
	cond    *sync.Cond
	streams []*Stream // sorted by name: the merge's tie-break order
	started bool
	err     error

	// opMu serializes appends and compactions so snapshots taken during
	// compaction are stable.
	opMu sync.Mutex

	startOnce  sync.Once
	mergerDone chan struct{}

	recovered map[string]int // resume positions from the checkpoint; nil without one
}

// New builds a daemon, recovering from Options.CheckpointPath if a
// checkpoint exists there. Register every stream before consuming any.
func New(opts Options) (*Daemon, error) {
	d := &Daemon{
		opts:       opts,
		bufferCap:  defaultBufferCap,
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
	positions, ch, cp, err := decodeEnvelope(data)
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
	d.inc.SeedCheckpoint(cp.Graph, ch, cp.FirstRetainedID, cp.LastID)
	return nil
}

// decodeEnvelope parses a checkpoint file — bytes a crash left behind —
// through the bounded wire reader: the magic, the per-stream resume
// positions, the channel table, then the embedded hbg checkpoint, which must
// end the file.
func decodeEnvelope(data []byte) (map[string]int, *hbr.Channels, *hbg.Checkpoint, error) {
	r := wire.NewReader(data)
	if magic := r.Take(len(streamMagic)); string(magic) != streamMagic {
		return nil, nil, nil, fmt.Errorf("bad magic %q", magic)
	}
	positions := map[string]int{}
	// A position is at least a name length and a count.
	for i := r.Count("stream", 2); i > 0 && r.Err() == nil; i-- {
		name, pos := r.Str(), r.Uvarint()
		if pos > math.MaxInt {
			return nil, nil, nil, fmt.Errorf("stream %q: position %d does not fit an int", name, pos)
		}
		positions[name] = int(pos)
	}
	ch := hbr.ReadChannels(r)
	if err := r.Err(); err != nil {
		return nil, nil, nil, err
	}
	cp, err := hbg.DecodeCheckpoint(bytes.NewReader(r.Take(r.Len())))
	return positions, ch, cp, err
}

// Register adds a per-router stream. All registrations must complete
// before any Consume call starts; the merger treats the registered set as
// the universe it must hear from before releasing events.
func (d *Daemon) Register(router string) *Stream {
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := slices.BinarySearchFunc(d.streams, router, func(s *Stream, name string) int {
		return strings.Compare(s.name, name)
	})
	if ok {
		return d.streams[i]
	}
	s := &Stream{d: d, name: router, skip: d.recovered[router], consumed: d.recovered[router]}
	d.streams = slices.Insert(d.streams, i, s)
	return s
}

// Consume parses r as the stream's router log and feeds it into the merge,
// a batch at a time: what each read of r yields, batchCap events at most.
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
	p.Neighbor, p.Metrics = d.opts.Neighbor, d.opts.Metrics
	skip := s.skip
	batch := make([]capture.IO, 0, batchCap)
	flush := func() {
		s.push(batch)
		batch = batch[:0]
	}
	err := p.ParseReader(s.name, flushingReader{r, flush}, func(io capture.IO) error {
		if skip > 0 {
			skip--
			return nil
		}
		if batch = append(batch, io); len(batch) == batchCap {
			flush()
		}
		return nil
	})
	flush()
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

// flushingReader pushes the stream's pending batch before each read of its
// source: on a live log a read can block, and what was parsed must not wait
// for it, or the merge waits too.
type flushingReader struct {
	r     io.Reader
	flush func()
}

func (f flushingReader) Read(p []byte) (int, error) {
	f.flush()
	return f.r.Read(p)
}

// push moves batch into the stream's buffer under one hold of d.mu, in
// chunks of the room left: a full buffer blocks it until the merger drains
// some, so bufferCap bounds what the stream has waiting.
func (s *Stream) push(batch []capture.IO) {
	if len(batch) == 0 {
		return
	}
	d := s.d
	d.mu.Lock()
	for len(batch) > 0 {
		for len(s.buf)-s.head >= d.bufferCap {
			d.cond.Wait()
		}
		n := min(len(batch), d.bufferCap-(len(s.buf)-s.head))
		if s.head > 0 && len(s.buf)+n > cap(s.buf) {
			// Reclaim the consumed prefix instead of growing: without this
			// the backing array pins every event ever pushed, because with
			// concurrent producers the buffer almost never drains to empty.
			k := copy(s.buf, s.buf[s.head:])
			clear(s.buf[k:])
			s.buf, s.head = s.buf[:k], 0
		}
		s.buf = append(s.buf, batch[:n]...)
		batch = batch[n:]
		d.cond.Broadcast()
	}
	d.mu.Unlock()
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
	for _, s := range d.streams {
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
		// Streams are sorted by name, so the earlier one wins a tie.
		if s.buf[s.head].Time < best.buf[best.head].Time {
			best = s
		}
	}
	return best, done
}

// popRunLocked appends to run, in merge order, every event the
// low-watermark rule releases, up to limit events. It returns done=true
// once every stream is closed and drained.
func (d *Daemon) popRunLocked(run []capture.IO, limit int) ([]capture.IO, bool) {
	for len(run) < limit {
		s, done := d.pickLocked()
		if s == nil {
			return run, done
		}
		run = append(run, s.buf[s.head])
		s.buf[s.head] = capture.IO{}
		s.head++
		s.run++
		if s.head == len(s.buf) {
			s.buf, s.head = s.buf[:0], 0
			if s.closed {
				s.buf = nil // a finished stream keeps no buffer
			}
		}
	}
	return run, false
}

// merge is the single appender: it releases buffered events in
// deterministic order, appends them to the capture log a run at a time, and
// triggers compaction at CompactEvery boundaries. A run ends where a
// boundary falls, so compaction sees the log at the same event counts as
// if events were appended one by one.
func (d *Daemon) merge() {
	defer close(d.mergerDone)
	ingested := d.opts.Metrics.Counter("stream.ingested")
	every := d.opts.CompactEvery
	total := d.log.TotalAppended()
	run := make([]capture.IO, 0, runCap)
	for {
		limit := runCap
		if every > 0 {
			limit = int(min(uint64(limit), every-total%every))
		}
		d.mu.Lock()
		var done bool
		for {
			run, done = d.popRunLocked(run[:0], limit)
			if len(run) > 0 || done {
				break
			}
			d.cond.Wait()
		}
		d.cond.Broadcast() // the run freed buffer room
		d.mu.Unlock()
		if len(run) == 0 {
			return
		}

		d.opMu.Lock()
		d.log.AppendBatch(run)
		total += uint64(len(run))
		ingested.Add(int64(len(run)))
		// Positions advance only now that the run is in the log, and under
		// opMu, so no checkpoint sees one without the other.
		d.mu.Lock()
		for _, s := range d.streams {
			s.consumed, s.run = s.consumed+s.run, 0
		}
		d.mu.Unlock()
		if every > 0 && total%every == 0 {
			if err := d.compact(); err != nil {
				d.mu.Lock()
				if d.err == nil {
					d.err = err
				}
				d.mu.Unlock()
			}
		}
		d.opMu.Unlock()
		if done {
			return
		}
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
	for _, s := range d.streams {
		out[s.name] = s.consumed
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

// compact runs with opMu held. The merge releases events in observed-time
// order, so the last retained event's time is the global low watermark that
// hbr.Incremental.Compact's floor trails: nothing appended later can look
// back past it.
func (d *Daemon) compact() error {
	g, evicted := d.inc.Compact(d.log)
	d.opts.Metrics.Counter("stream.compact.evicted").Add(int64(evicted))
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
	if err := encodeEnvelope(f, d.Positions(), d.inc.AppendChannels(nil), cp); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Sync before the rename: otherwise a crash can leave the rename durable
	// and the data not, and New refuses the short file on restart.
	if err := f.Sync(); err != nil {
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

// encodeEnvelope is decodeEnvelope's inverse; names are written sorted, and
// channels is the encoded table (hbr.Incremental.AppendChannels).
func encodeEnvelope(w io.Writer, positions map[string]int, channels []byte, cp *hbg.Checkpoint) error {
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
	if _, err := w.Write(append(buf, channels...)); err != nil {
		return err
	}
	return cp.Encode(w)
}
