package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/ciscolog"
	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/metrics"
	"hbverify/internal/stream"
)

// ingestKind is one window size the daemon is run at. The heavy kind is the
// same layer holding an eight times larger state, so a fix for one window
// size that costs the other shows.
type ingestKind struct {
	name  string
	rules hbr.Rules
	slack time.Duration
	fleet stream.Fleet
	logs  [][]byte // one pre-rendered log per router
	nodes int      // graph size of the first pass; later passes must match
	edges int
}

// logIngest is the always-on daemon: router logs in, happens-before graph
// out. A pass is a fresh daemon consuming the four pre-rendered logs, one
// goroutine per router as the daemon's API requires, until the merged
// graph is ready.
type logIngest struct {
	cfg              Config
	primary, heavy   ingestKind
	primaryN, heavyN int // timed passes of each kind

	digest    []byte // of the rendered logs, hashed once
	startHeap float64
	last      *stream.Daemon // the latest daemon of each kind stays referenced
	lastHeavy *stream.Daemon
	lastReg   *metrics.Registry // registry of the latest primary pass
	cnt       map[string]int64
	passHeap  float64
}

func newLogIngest(cfg Config) (instance, error) {
	// Passes are kept short and many: this box's speed wanders by a fifth
	// over seconds, and a median needs samples to see past that. The heavy
	// pass cannot be shorter than the 57 K events that fill its window.
	w := &logIngest{cfg: cfg, primaryN: 12, heavyN: 4, cnt: map[string]int64{}}
	primaryEvents, heavyEvents := 3500*cfg.Seconds, 3500*cfg.Seconds
	if cfg.Trace {
		// A shorter pass would not fill the heavy window, so the traced run
		// makes fewer passes of the full size.
		w.primaryN, w.heavyN = 3, 1
	}
	if cfg.Smoke {
		primaryEvents, heavyEvents = 12000, 8000
		w.primaryN, w.heavyN = 3, 1
	}
	// The fleet generator keeps its own skew pattern; the seed picks how
	// often r0 logs a configuration change.
	configEvery := 40 + rand.New(rand.NewSource(cfg.Seed)).Intn(21)
	w.primary = ingestKind{
		name: "shipped",
		// The windows verifyd ships with.
		rules: hbr.Rules{Window: 500 * time.Millisecond, ConfigWindow: 5 * time.Second, CrossWindow: 500 * time.Millisecond},
		slack: 400 * time.Millisecond,
	}
	// The defaults: a 60 s configuration window plus twice the 1 s slack
	// retains about 58 K events, and every compaction folds them again.
	w.heavy = ingestKind{name: "default"}
	for _, k := range []struct {
		kind   *ingestKind
		events int
	}{{&w.primary, primaryEvents}, {&w.heavy, heavyEvents}} {
		// Four routers: the shortest line with two transit hops.
		f := stream.Fleet{Routers: 4, ConfigEvery: configEvery}
		f.Waves = k.events / f.EventsPerWave()
		k.kind.fleet = f
		for i := 0; i < f.Routers; i++ {
			log, err := io.ReadAll(f.Reader(i))
			if err != nil {
				return nil, fmt.Errorf("render log of %s: %w", f.RouterName(i), err)
			}
			k.kind.logs = append(k.kind.logs, log)
		}
	}
	return w, nil
}

func (w *logIngest) schedule() []byte {
	if w.digest != nil {
		return w.digest
	}
	h := sha256.New()
	for _, k := range []*ingestKind{&w.primary, &w.heavy} {
		fmt.Fprintf(h, "%s %+v\n", k.name, k.fleet)
		for _, log := range k.logs {
			h.Write(log)
		}
	}
	w.digest = h.Sum(nil)
	return w.digest
}

func (w *logIngest) build() error {
	w.startHeap = liveHeapMB()
	// The warm-up slice: two discarded primary passes.
	for i := 0; i < 2; i++ {
		if _, err := w.pass(nil, &w.primary); err != nil {
			return err
		}
	}
	return nil
}

func (w *logIngest) run(rec *recorder) error {
	for p, h := 0, 0; p < w.primaryN; {
		d, err := w.pass(rec.tr, &w.primary)
		rec.check(&rec.op, d, err)
		if err == nil {
			rec.units += w.primary.fleet.TotalEvents()
			rec.unitTime += d
		}
		// A heavy pass follows every third primary pass.
		if p++; p%3 == 0 && h < w.heavyN {
			h++
			d, err := w.pass(rec.tr, &w.heavy)
			rec.check(&rec.heavy, d, err)
		}
	}
	if rec.tr != nil {
		w.passHeap = liveHeapMB() - w.startHeap
	}
	return nil
}

// pass ingests one kind's logs into a fresh daemon and checks the result.
func (w *logIngest) pass(tr *tracer, k *ingestKind) (elapsed time.Duration, err error) {
	reg := metrics.NewRegistry()
	var d *stream.Daemon
	var g *hbg.Graph
	start := time.Now()
	tr.beginOp()
	tr.span("pass/"+k.name, func() {
		d, err = stream.New(stream.Options{Strategy: k.rules, Metrics: reg, SkewSlack: k.slack,
			Resolve: k.fleet.Resolver(), CompactEvery: 4096})
		if err != nil {
			return
		}
		streams := make([]*stream.Stream, len(k.logs))
		for i := range streams {
			streams[i] = d.Register(k.fleet.RouterName(i))
		}
		errs := make([]error, len(streams))
		parent := tr.top()
		var wg sync.WaitGroup
		for i := range streams {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tr.spanUnder(parent, "stream.Consume", func() {
					errs[i] = streams[i].Consume(bytes.NewReader(k.logs[i]))
				})
			}(i)
		}
		wg.Wait()
		tr.span("stream.Wait", func() { err = d.Wait() })
		for _, e := range errs {
			if err == nil {
				err = e
			}
		}
		if err != nil {
			return
		}
		tr.span("stream.Graph", func() { g = d.Graph() })
	})
	elapsed = time.Since(start)
	if err != nil {
		return elapsed, err
	}
	if k == &w.heavy {
		w.lastHeavy = d
	} else {
		w.last, w.lastReg = d, reg
	}
	if got, want := d.Log().TotalAppended(), uint64(k.fleet.TotalEvents()); got != want {
		return elapsed, fmt.Errorf("%s pass ingested %d of %d events", k.name, got, want)
	}
	compactions := reg.Counter("stream.compactions").Value()
	if compactions == 0 {
		return elapsed, fmt.Errorf("%s pass never compacted", k.name)
	}
	nodes, edges := g.NodeCount(), g.EdgeCount()
	if k.nodes == 0 {
		k.nodes, k.edges = nodes, edges
	} else if nodes != k.nodes || edges != k.edges {
		return elapsed, fmt.Errorf("%s pass built %d nodes and %d edges, an earlier pass %d and %d", k.name, nodes, edges, k.nodes, k.edges)
	}
	w.cnt["hbg.nodes_"+k.name], w.cnt["hbg.edges_"+k.name] = int64(nodes), int64(edges)
	w.cnt["stream.compactions_"+k.name] = compactions
	w.cnt["stream.window_events_"+k.name] = int64(d.Log().Len())
	w.cnt["stream.events_"+k.name] = int64(k.fleet.TotalEvents())
	w.cnt["hbr.infer_incremental_"+k.name] = reg.Timer("infer.incremental").Count()
	w.cnt["hbr.infer_full_"+k.name] = reg.Timer("infer.full").Count()
	return elapsed, nil
}

func (w *logIngest) counts() map[string]int64 {
	out := make(map[string]int64, len(w.cnt))
	for k, v := range w.cnt {
		out[k] = v
	}
	return out
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

func (w *logIngest) layers(rec *recorder, m map[string]float64) error {
	// Emit and parse on their own: router 1's pre-rendered log, one
	// goroutine, nothing downstream.
	log := w.primary.logs[1]
	parser := ciscolog.NewParser(w.primary.fleet.Resolver())
	ios, err := parser.ParseLog("r1", bytes.NewReader(log))
	if err != nil {
		return err
	}
	events := float64(len(ios))
	start := time.Now()
	if err := ciscolog.EmitLog(io.Discard, ios); err != nil {
		return err
	}
	m["ciscolog.emit_ns_per_event"] = float64(time.Since(start)) / events
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	if err := parser.ParseReader("r1", bytes.NewReader(log), func(capture.IO) error { return nil }); err != nil {
		return err
	}
	m["ciscolog.parse_ns_per_event"] = float64(time.Since(start)) / events
	runtime.ReadMemStats(&m1)
	m["ciscolog.parse_allocs_per_event"] = float64(m1.Mallocs-m0.Mallocs) / events

	m["stream.compactions_per_pass"] = float64(w.cnt["stream.compactions_shipped"])
	m["stream.window_events"] = float64(w.cnt["stream.window_events_default"])
	m["stream.pass_heap_mb"] = w.passHeap
	inc := w.lastReg.Timer("infer.incremental")
	m["hbr.incremental_us_per_event"] = float64(inc.Total()) / 1e3 / float64(w.primary.fleet.TotalEvents())
	m["hbr.infer_incremental_count"] = float64(inc.Count())
	m["hbr.infer_full_count"] = float64(w.lastReg.Timer("infer.full").Count())
	m["hbr.infer_ms_p50"] = median(rec.tr.durationsMs("stream.Graph"))
	m["hbg.nodes"], m["hbg.edges"] = float64(w.primary.nodes), float64(w.primary.edges)

	// Checkpointing is off in the timed passes; this is what one would cost.
	d := w.last
	cp := &hbg.Checkpoint{Graph: d.Graph(), LastID: d.Log().TotalAppended(),
		FirstRetainedID: d.Log().FirstID(), Retained: d.Log().Snapshot()}
	var cw countingWriter
	start = time.Now()
	if err := cp.Encode(&cw); err != nil {
		return err
	}
	m["hbg.checkpoint_encode_ms"] = float64(time.Since(start)) / 1e6
	m["hbg.checkpoint_bytes"] = float64(cw.n)
	return nil
}

func (w *logIngest) close() {}
