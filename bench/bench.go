// Package bench is the repository's one benchmark: four long workloads
// that drive the paper's loop from outside, through the public functions
// of each layer, and report the same five end-to-end metrics on each. A
// traced run records a span around every call into a layer and derives the
// per-layer metrics from those spans and from the counters the layers
// already publish. See README.md for what each workload and metric is for.
package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// RefSeconds is the timed-section length the operation counts were sized
// for on the reference box, and BENCHMARK.json's run_seconds.
const RefSeconds = 20

// setupReps is how many times an untraced run sets up; setup_s is the
// median, and the deterministic counts of every repetition must agree.
const setupReps = 3

// Config selects one run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the target length of the timed section. Operation counts
	// are derived from it before the run, so one seed and one length give
	// the same operations on every run.
	Seconds int
	// Trace makes the run a traced one: quarter-length timed sections, one
	// untraced and one traced, and per-layer metrics in the result.
	Trace bool
	// Smoke shrinks topologies and counts to what a unit test can afford.
	Smoke bool
	// OutDir receives trace-<workload>.json; empty writes nothing.
	OutDir string
}

// scale is the factor operation counts are multiplied by.
func (c Config) scale() float64 {
	s := float64(c.Seconds) / RefSeconds
	if c.Trace {
		s /= 4
	}
	return s
}

// scaled sizes an operation count for the run, never below min.
func (c Config) scaled(ref, min int) int {
	if n := int(float64(ref)*c.scale() + 0.5); n > min {
		return n
	}
	return min
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports.
type Result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]Metric
	// Counts are the counts that do not involve the scheduler; they repeat
	// exactly for one seed and length.
	Counts map[string]int64
	// Samples is how many latencies stand behind each percentile.
	OpSamples, HeavySamples int
	CalibBeforeMs           float64
	CalibAfterMs            float64
	// Noisy marks a run whose two calibration readings differ by more than
	// 15 %: reported, not failed.
	Noisy bool
}

// instance is one workload set up for one run. Making it generates the
// seeded inputs; nothing the program under test owns exists before build.
type instance interface {
	// build makes the system under test, runs the first full verification
	// and the discarded warm-up slice.
	build() error
	// run is the timed section.
	run(rec *recorder) error
	// schedule serializes the generated inputs, or a digest of them.
	schedule() []byte
	// counts returns the deterministic counts gathered so far.
	counts() map[string]int64
	// layers fills in the workload's per-layer metrics after a traced run,
	// making the extra measurements only a traced run affords.
	layers(rec *recorder, m map[string]float64) error
	close()
}

// Workloads lists the workloads in the order a full pass runs them.
var Workloads = []string{"fault_loop", "log_ingest", "churn_reverify", "query_mix"}

var makers = map[string]func(Config) (instance, error){
	"fault_loop":     newFaultLoop,
	"log_ingest":     newLogIngest,
	"churn_reverify": newChurnReverify,
	"query_mix":      newQueryMix,
}

// recorder collects what the timed section measures.
type recorder struct {
	tr        *tracer
	op, heavy []float64 // latencies in ms, failed operations dropped
	attempted int
	failed    int
	units     int // primary units completed, the numerator of ops_per_s
	// unitTime is the time the primary units took when the timed section
	// also does other work; zero means the whole section.
	unitTime time.Duration
	// trending marks latencies that grow steadily from one operation to the
	// next, so their median is taken along the trend.
	trending  bool
	firstFail string
}

// p50 is the median latency of one kind of operation.
func (r *recorder) p50(ms []float64) float64 {
	if r.trending {
		return trendMedian(ms)
	}
	return median(ms)
}

// check counts one operation and keeps its latency only when err is nil.
func (r *recorder) check(dst *[]float64, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstFail == "" {
			r.firstFail = err.Error()
		}
		return
	}
	*dst = append(*dst, float64(d)/1e6)
}

// pass is one set-up plus one timed section.
type pass struct {
	inst     instance
	rec      *recorder
	setupS   []float64
	wallS    float64
	heapMB   float64
	allocKB  float64
	mallocs  float64
	baseHeap float64
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// countsOf is the instance's deterministic counts plus a digest of its
// generated inputs, so that a changed schedule shows as a changed count.
func countsOf(inst instance) map[string]int64 {
	c := inst.counts()
	sum := sha256.Sum256(inst.schedule())
	c["schedule.digest"] = int64(binary.BigEndian.Uint64(sum[:8]) >> 1)
	return c
}

func sameCounts(a, b map[string]int64) error {
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return fmt.Errorf("deterministic count %s differs between repetitions: %d vs %d", k, v, w)
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("repetitions report different sets of counts: %d vs %d", len(a), len(b))
	}
	return nil
}

// runPass sets the workload up reps times, keeping the last, then runs the
// timed section once. The caller closes p.inst.
func runPass(cfg Config, reps int, tr *tracer) (p *pass, err error) {
	p = &pass{rec: &recorder{tr: tr}}
	defer func() {
		if err != nil && p.inst != nil {
			p.inst.close()
		}
	}()
	var prev map[string]int64
	for rep := 0; rep < reps; rep++ {
		if p.inst != nil {
			p.inst.close()
			p.inst = nil
		}
		start := time.Now()
		if p.inst, err = makers[cfg.Workload](cfg); err != nil {
			return p, fmt.Errorf("%s: generate inputs: %w", cfg.Workload, err)
		}
		p.baseHeap = liveHeapMB()
		if err = p.inst.build(); err != nil {
			return p, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		c := countsOf(p.inst)
		if prev != nil {
			if err = sameCounts(prev, c); err != nil {
				return p, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
			}
		}
		prev = c
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err = p.inst.run(p.rec); err != nil {
		return p, fmt.Errorf("%s: timed section: %w", cfg.Workload, err)
	}
	p.wallS = time.Since(start).Seconds()
	if p.rec.unitTime > 0 {
		p.wallS = p.rec.unitTime.Seconds()
	}
	runtime.ReadMemStats(&m1)
	p.heapMB = liveHeapMB() - p.baseHeap
	runtime.KeepAlive(p.inst)
	if u := float64(p.rec.units); u > 0 {
		p.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / u
		p.mallocs = float64(m1.Mallocs-m0.Mallocs) / u
	}
	return p, nil
}

// Run executes one run of one workload and returns its result. The error
// is for a run that could not be made or whose deterministic counts
// disagree; operations that fail their checks are counted in the result.
func Run(cfg Config) (*Result, error) {
	if makers[cfg.Workload] == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(Workloads, ", "))
	}
	if cfg.Seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", cfg.Seconds)
	}
	lines := calibLines
	if cfg.Smoke {
		lines /= 10
	}
	cal, err := newCalibration(lines)
	if err != nil {
		return nil, err
	}
	res := &Result{Workload: cfg.Workload, Metrics: map[string]Metric{}}
	res.CalibBeforeMs = cal.run()
	if cfg.Trace {
		err = runTraced(cfg, res)
	} else {
		err = runTimed(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.CalibAfterMs = cal.run()
	lo, hi := res.CalibBeforeMs, res.CalibAfterMs
	if lo > hi {
		lo, hi = hi, lo
	}
	res.Noisy = hi > lo*1.15
	if cfg.Trace {
		res.Metrics["machine.calib_ms_before"] = Metric{res.CalibBeforeMs, "ms"}
		res.Metrics["machine.calib_ms_after"] = Metric{res.CalibAfterMs, "ms"}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func (res *Result) take(p *pass) {
	res.Attempted += p.rec.attempted
	res.Failed += p.rec.failed
	if p.rec.firstFail != "" {
		fmt.Fprintf(os.Stderr, "%s: first failed operation: %s\n", res.Workload, p.rec.firstFail)
	}
}

func runTimed(cfg Config, res *Result) error {
	p, err := runPass(cfg, setupReps, nil)
	if err != nil {
		return err
	}
	defer p.inst.close()
	res.take(p)
	res.Counts = countsOf(p.inst)
	res.OpSamples, res.HeavySamples = len(p.rec.op), len(p.rec.heavy)
	if len(p.rec.op) == 0 || len(p.rec.heavy) == 0 {
		return fmt.Errorf("%s: no operation passed its checks (%s)", cfg.Workload, p.rec.firstFail)
	}
	res.Metrics["setup_s"] = Metric{median(p.setupS), "s"}
	res.Metrics["op_ms_p50"] = Metric{p.rec.p50(p.rec.op), "ms"}
	res.Metrics["heavy_op_ms_p50"] = Metric{p.rec.p50(p.rec.heavy), "ms"}
	res.Metrics["ops_per_s"] = Metric{float64(p.rec.units) / p.wallS, "1/s"}
	res.Metrics["heap_mb"] = Metric{p.heapMB, "MB"}
	return nil
}

// runTraced makes the quarter-length section twice, untraced then traced,
// from fresh set-ups: the pair gives the tracing overhead and is the
// in-process repetition the deterministic counts are compared across.
func runTraced(cfg Config, res *Result) error {
	ref, err := runPass(cfg, 1, nil)
	if err != nil {
		return err
	}
	refCounts := countsOf(ref.inst)
	ref.inst.close()
	res.take(ref)

	tr := newTracer()
	p, err := runPass(cfg, 1, tr)
	if err != nil {
		return err
	}
	defer p.inst.close()
	res.take(p)
	res.Counts = countsOf(p.inst)
	if err := sameCounts(refCounts, res.Counts); err != nil {
		return fmt.Errorf("%s: untraced vs traced: %w", cfg.Workload, err)
	}
	res.OpSamples, res.HeavySamples = len(p.rec.op), len(p.rec.heavy)
	if len(p.rec.op) == 0 || len(ref.rec.op) == 0 {
		return fmt.Errorf("%s: no operation passed its checks (%s)", cfg.Workload, p.rec.firstFail)
	}

	m := map[string]float64{}
	if err := p.inst.layers(p.rec, m); err != nil {
		return fmt.Errorf("%s: per-layer measurements: %w", cfg.Workload, err)
	}
	base := ref.rec.p50(ref.rec.op)
	m["trace.overhead_pct"] = 100 * (p.rec.p50(p.rec.op) - base) / base
	m["tail.op_pct"], m["tail.op_ms"] = tail(p.rec.op)
	m["tail.heavy_op_pct"], m["tail.heavy_op_ms"] = tail(p.rec.heavy)
	m["samples.op"] = float64(len(p.rec.op))
	m["samples.heavy_op"] = float64(len(p.rec.heavy))
	m["alloc.kb_per_op"] = p.allocKB
	m["alloc.mallocs_per_op"] = p.mallocs
	for _, d := range PerLayer {
		res.Metrics[d.Name] = Metric{m[d.Name], d.Unit}
		delete(m, d.Name)
	}
	for name := range m {
		return fmt.Errorf("%s reports per-layer metric %s, which metrics.go does not list", cfg.Workload, name)
	}
	if cfg.OutDir != "" {
		if err := tr.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json")); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// trendMedian is the median of a series that trends with its position. In
// a series that grows in a straight line the median is the value at the
// middle position, which the two middle samples alone decide. This fits
// the line through all of them instead (Theil-Sen: the median of the
// pairwise slopes, then the median residual) and reads it at the middle.
func trendMedian(ys []float64) float64 {
	if len(ys) < 3 {
		return median(ys)
	}
	var slopes []float64
	for i := range ys {
		for j := i + 1; j < len(ys); j++ {
			slopes = append(slopes, (ys[j]-ys[i])/float64(j-i))
		}
	}
	slope := median(slopes)
	level := make([]float64, len(ys))
	for i, y := range ys {
		level[i] = y - slope*float64(i)
	}
	return median(level) + slope*float64(len(ys)-1)/2
}

// tail is the highest percentile with at least ten samples beyond it, and
// which percentile that is. With ten samples or fewer there is none: it
// reports the maximum as the 100th.
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	i := len(s) - 11
	if i < 0 {
		return 100, s[len(s)-1]
	}
	return 100 * float64(i+1) / float64(len(s)), s[i]
}
