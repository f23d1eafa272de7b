// §4.2's inference baselines and E8 (BenchmarkHBRInference), which compares
// them with rule matching: timestamps, prefixes, patterns mined from a
// policy-compliant reference log, and patterns under rules. Each baseline
// has one implementation, over reference.go's refIndex; production infers
// through Rules alone.
//
// §4.2 attaches a statistical confidence to each pattern-inferred HBR. Here
// that confidence is the model's threshold: a pattern below it infers no
// edge, and an edge that is inferred carries no weight.

package hbr

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/hbg"
	"hbverify/internal/network"
	"hbverify/internal/route"
)

// Timestamp is the naive baseline: each event is linked to the immediately
// preceding event on the same router. The paper: "timestamps cannot be
// used as the sole mechanism for identifying HBRs" — this strategy exists
// to quantify that claim.
type Timestamp struct{}

// Infer links each router's events in observed order.
func (Timestamp) Infer(ios []capture.IO) *hbg.Graph {
	idx := buildRefIndex(ios)
	g := hbg.New()
	for _, io := range ios {
		g.AddNode(io)
	}
	for _, evs := range idx.byRouter {
		for i := 1; i < len(evs); i++ {
			g.AddEdge(evs[i-1].ID, evs[i].ID)
		}
	}
	return g
}

// Prefix links every output to all preceding same-prefix events on the same
// router within Window, plus cross-router same-prefix send→recv pairs.
// High recall, poor precision: a filter, not an identifier.
type Prefix struct {
	// Window bounds how far back relationships reach (default 500ms).
	Window time.Duration
}

// Infer applies the prefix filter to ios.
func (p Prefix) Infer(ios []capture.IO) *hbg.Graph {
	window := p.Window
	if window == 0 {
		window = 500 * time.Millisecond
	}
	idx := buildRefIndex(ios)
	g := hbg.New()
	for _, io := range ios {
		g.AddNode(io)
	}
	for _, io := range idx.all {
		if !io.HasPrefix() {
			continue
		}
		io := io
		idx.precedingOnRouter(io, window, func(cand capture.IO) bool {
			if cand.Prefix == io.Prefix {
				g.AddEdge(cand.ID, io.ID)
			}
			return true
		})
		if io.Type == capture.RecvAdvert || io.Type == capture.RecvWithdraw {
			if send, ok := idx.matchSendForRecv(io, window); ok {
				g.AddEdge(send.ID, io.ID)
			}
		}
	}
	return g
}

// pairKey identifies a candidate ordering pattern: an event of kind A
// (type+protocol) preceding an event of kind B on the same router (or
// across a send/recv boundary when cross is set).
type pairKey struct {
	aType  capture.Type
	aProto route.Protocol
	bType  capture.Type
	bProto route.Protocol
	cross  bool
}

// totalKey counts B-kind events — the confidence denominator.
type totalKey struct {
	t capture.Type
	p route.Protocol
}

// Model is a trained pattern model: per-pair confidence that a B-kind event
// is preceded by an A-kind event.
type Model struct {
	conf   map[pairKey]float64
	window time.Duration
}

// Pairs returns the learned pairs above threshold, for diagnostics.
func (m *Model) Pairs(threshold float64) int {
	n := 0
	for _, c := range m.conf {
		if c >= threshold {
			n++
		}
	}
	return n
}

// Miner trains pattern models.
type Miner struct {
	// Window bounds how far back a preceding event may be (default 500ms).
	Window time.Duration
}

// Train mines pair statistics from a reference log. For every event B it
// looks back Window on the same router for prefix-compatible events A
// (same prefix, or A prefix-less) and counts each distinct kind once;
// confidence(A→B) = (#B preceded by A) / (#B).
func (m Miner) Train(ref []capture.IO) *Model {
	window := m.Window
	if window == 0 {
		window = 500 * time.Millisecond
	}
	idx := buildRefIndex(ref)
	hits := map[pairKey]int{}
	totals := map[totalKey]int{}
	for _, b := range idx.all {
		b := b
		totals[totalKey{b.Type, b.Proto}]++
		seen := map[pairKey]bool{}
		idx.precedingOnRouter(b, window, func(a capture.IO) bool {
			if a.HasPrefix() && b.HasPrefix() && a.Prefix != b.Prefix {
				return true
			}
			k := pairKey{a.Type, a.Proto, b.Type, b.Proto, false}
			if !seen[k] {
				seen[k] = true
				hits[k]++
			}
			return true
		})
		if b.Type == capture.RecvAdvert || b.Type == capture.RecvWithdraw {
			if send, ok := idx.matchSendForRecv(b, window); ok {
				hits[pairKey{send.Type, send.Proto, b.Type, b.Proto, true}]++
			}
		}
	}
	model := &Model{conf: map[pairKey]float64{}, window: window}
	for k, h := range hits {
		if t := totals[totalKey{k.bType, k.bProto}]; t > 0 {
			model.conf[k] = float64(h) / float64(t)
		}
	}
	return model
}

// Patterns applies a trained model to a target log.
type Patterns struct {
	Model *Model
	// Threshold drops pairs below this confidence (default 0.9). The
	// paper: "only alerting and acting on a violation when [confidence]
	// is high enough".
	Threshold float64
}

// Infer makes, for each event B, the nearest preceding prefix-compatible
// event of each sufficiently confident kind A an inferred HBR.
func (p Patterns) Infer(ios []capture.IO) *hbg.Graph {
	threshold := p.Threshold
	if threshold == 0 {
		threshold = 0.9
	}
	g := hbg.New()
	for _, io := range ios {
		g.AddNode(io)
	}
	if p.Model == nil {
		return g
	}
	confident := func(k pairKey) bool {
		c, ok := p.Model.conf[k]
		return ok && c >= threshold
	}
	idx := buildRefIndex(ios)
	for _, b := range idx.all {
		b := b
		matched := map[pairKey]bool{}
		idx.precedingOnRouter(b, p.Model.window, func(a capture.IO) bool {
			if a.HasPrefix() && b.HasPrefix() && a.Prefix != b.Prefix {
				return true
			}
			k := pairKey{a.Type, a.Proto, b.Type, b.Proto, false}
			if !matched[k] && confident(k) {
				matched[k] = true
				g.AddEdge(a.ID, b.ID)
			}
			return true
		})
		if b.Type == capture.RecvAdvert || b.Type == capture.RecvWithdraw {
			if send, ok := idx.matchSendForRecv(b, p.Model.window); ok &&
				confident(pairKey{send.Type, send.Proto, b.Type, b.Proto, true}) {
				g.AddEdge(send.ID, b.ID)
			}
		}
	}
	return g
}

// Combined layers pattern inference under rule matching: pattern edges
// fill in only events the rules left without a parent, one per event — of
// several pattern parents the lowest ID is kept.
type Combined struct {
	Rules    Rules
	Patterns Patterns
}

// Infer runs both and merges their edges.
func (c Combined) Infer(ios []capture.IO) *hbg.Graph {
	g := ReferenceRules(c.Rules, ios)
	if c.Patterns.Model == nil {
		return g
	}
	for _, e := range c.Patterns.Infer(ios).Edges() { // by From: the lowest first
		if len(g.Parents(e.To)) == 0 {
			g.AddEdge(e.From, e.To)
		}
	}
	return g
}

// Baseline is one strategy of E8's lineup.
type Baseline struct {
	Name  string
	Infer func([]capture.IO) *hbg.Graph
}

// Baselines is §4.2's lineup in E8's row order, the pattern model trained
// on ref. Rules is the production implementation.
func Baselines(ref []capture.IO, window time.Duration) []Baseline {
	rules := Rules{Window: window}
	patterns := Patterns{Model: Miner{Window: window}.Train(ref)}
	return []Baseline{
		{"timestamp", Timestamp{}.Infer},
		{"prefix", Prefix{Window: window}.Infer},
		{"rules", rules.Infer},
		{"patterns", patterns.Infer},
		{"combined", Combined{Rules: rules, Patterns: patterns}.Infer},
	}
}

// e8Table gates E8's table to one print per process.
var e8Table sync.Once

// BenchmarkHBRInference is E8 — §4.2: HBR inference strategies,
// precision/recall under clock skew, plus the cost of rule matching per
// event. Run with
//
//	go test -run=NONE -bench=HBRInference -benchtime=1x ./internal/hbr
func BenchmarkHBRInference(b *testing.B) {
	converged := func(seed int64, opt network.PaperOpts) *network.PaperNet {
		pn, err := network.BuildPaper(seed, opt)
		if err != nil {
			b.Fatal(err)
		}
		pn.Start()
		if err := pn.Run(); err != nil {
			b.Fatal(err)
		}
		return pn
	}
	// Reference (policy-compliant) log for pattern training.
	ref := capture.StripOracle(converged(7, network.DefaultPaperOpts()).Log.Snapshot())

	scenario := func(skew, jitter time.Duration) []capture.IO {
		opt := network.DefaultPaperOpts()
		opt.ClockSkew, opt.ClockJitter = skew, jitter
		pn := converged(1, opt)
		if _, err := pn.UpdateConfig("r2", "set uplink local-pref 10", func(c *config.Router) {
			c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = 10
		}); err != nil {
			b.Fatal(err)
		}
		if err := pn.Run(); err != nil {
			b.Fatal(err)
		}
		return pn.Log.Snapshot()
	}
	clean := scenario(0, 0)
	skewed := scenario(3*time.Millisecond, 2*time.Millisecond)

	var rows []string
	for _, s := range Baselines(ref, 0) {
		mc := Evaluate(s.Infer(capture.StripOracle(clean)), clean)
		ms := Evaluate(s.Infer(capture.StripOracle(skewed)), skewed)
		rows = append(rows, fmt.Sprintf("  %-11s %6.2f %6.2f   %6.2f %6.2f",
			s.Name, mc.Precision, mc.Recall, ms.Precision, ms.Recall))
	}
	stripped := capture.StripOracle(clean)
	rules := Rules{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules.Infer(stripped)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N * len(stripped))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
	e8Table.Do(func() {
		fmt.Println("\n[E8/§4.2] HBR inference accuracy (clean clocks | 3ms skew + 2ms jitter)")
		fmt.Printf("  %-11s %6s %6s   %6s %6s\n", "strategy", "prec", "rec", "prec", "rec")
		for _, r := range rows {
			fmt.Println(r)
		}
	})
}
