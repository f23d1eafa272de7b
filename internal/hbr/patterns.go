// Pattern matching (§4.2): mine I/O orderings from a policy-compliant
// reference network and apply them, with statistical confidence, to a
// possibly-broken network. Fully automated — no protocol knowledge — at
// the cost of missing HBRs that never occurred in the reference traces.

package hbr

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
	"hbverify/internal/route"
)

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

func (k pairKey) total() totalKey { return totalKey{t: k.bType, p: k.bProto} }

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
func (m Miner) Train(ref []capture.IO) *Model { return m.TrainIndex(NewIndex(ref)) }

// TrainIndex mines over a pre-built shared index. Large logs are split
// into contiguous ranges counted by parallel workers; summing the
// per-range counts is commutative, so the merged model is deterministic.
func (m Miner) TrainIndex(idx *Index) *Model {
	window := m.Window
	if window == 0 {
		window = 500 * time.Millisecond
	}
	n := idx.Len()
	workers := runtime.GOMAXPROCS(0)
	hits := map[pairKey]int{}
	totals := map[totalKey]int{}
	if n < parallelMinEvents || workers <= 1 {
		m.trainRange(idx, 0, n, window, hits, totals)
	} else {
		if workers > n {
			workers = n
		}
		type counts struct {
			hits   map[pairKey]int
			totals map[totalKey]int
		}
		locals := make([]counts, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				locals[w] = counts{hits: map[pairKey]int{}, totals: map[totalKey]int{}}
				m.trainRange(idx, lo, hi, window, locals[w].hits, locals[w].totals)
			}()
		}
		wg.Wait()
		for _, c := range locals {
			for k, v := range c.hits {
				hits[k] += v
			}
			for k, v := range c.totals {
				totals[k] += v
			}
		}
	}
	model := &Model{conf: map[pairKey]float64{}, window: window}
	for k, h := range hits {
		if t := totals[k.total()]; t > 0 {
			model.conf[k] = float64(h) / float64(t)
		}
	}
	return model
}

// trainRange counts pair statistics for events [lo, hi) of the observed
// order.
func (m Miner) trainRange(idx *Index, lo, hi int, window time.Duration, hits map[pairKey]int, totals map[totalKey]int) {
	for _, p := range idx.order[lo:hi] {
		b := idx.at(p)
		totals[totalKey{t: b.Type, p: b.Proto}]++
		seen := map[pairKey]bool{}
		idx.precedingOnRouter(p, window, func(a *capture.IO) bool {
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
			if send := idx.matchSendForRecv(b, window); send != nil {
				k := pairKey{send.Type, send.Proto, b.Type, b.Proto, true}
				hits[k]++
			}
		}
	}
}

// Patterns applies a trained model to a target log.
type Patterns struct {
	Model *Model
	// Threshold drops pairs below this confidence (default 0.9). The
	// paper: "only alerting and acting on a violation when [confidence]
	// is high enough".
	Threshold float64
}

// Name implements Strategy.
func (Patterns) Name() string { return "patterns" }

// Infer implements Strategy. For each event B, the nearest preceding
// prefix-compatible event of each sufficiently-confident kind A becomes an
// inferred HBR carrying the learned confidence.
func (p Patterns) Infer(ios []capture.IO) *hbg.Graph { return p.InferIndex(NewIndex(ios)) }

// InferIndex implements IndexInferrer.
func (p Patterns) InferIndex(idx *Index) *hbg.Graph { return idx.graph(idx.run(p.rule(idx))) }

func (p Patterns) rule(idx *Index) rule {
	if p.Model == nil {
		return func(_ int32, out []hbg.EdgeConf) []hbg.EdgeConf { return out }
	}
	threshold := p.Threshold
	if threshold == 0 {
		threshold = 0.9
	}
	return func(pos int32, out []hbg.EdgeConf) []hbg.EdgeConf {
		b := idx.at(pos)
		matched := map[pairKey]bool{}
		idx.precedingOnRouter(pos, p.Model.window, func(a *capture.IO) bool {
			if a.HasPrefix() && b.HasPrefix() && a.Prefix != b.Prefix {
				return true
			}
			k := pairKey{a.Type, a.Proto, b.Type, b.Proto, false}
			if matched[k] {
				return true
			}
			if c, ok := p.Model.conf[k]; ok && c >= threshold {
				matched[k] = true
				out = append(out, hbg.EdgeConf{From: a.ID, To: b.ID, Conf: c})
			}
			return true
		})
		if b.Type == capture.RecvAdvert || b.Type == capture.RecvWithdraw {
			if send := idx.matchSendForRecv(b, p.Model.window); send != nil {
				k := pairKey{send.Type, send.Proto, b.Type, b.Proto, true}
				if c, ok := p.Model.conf[k]; ok && c >= threshold {
					out = append(out, hbg.EdgeConf{From: send.ID, To: b.ID, Conf: c})
				}
			}
		}
		return out
	}
}

// Combined layers pattern inference under rule matching: rules contribute
// confidence-1 edges; pattern edges fill in relationships the rules missed.
type Combined struct {
	Rules    Rules
	Patterns Patterns
}

// Name implements Strategy.
func (Combined) Name() string { return "combined" }

// Infer implements Strategy.
func (c Combined) Infer(ios []capture.IO) *hbg.Graph { return c.InferIndex(NewIndex(ios)) }

// InferIndex implements IndexInferrer: rules and patterns share the one
// index instead of each building their own.
func (c Combined) InferIndex(idx *Index) *hbg.Graph { return idx.graph(idx.run(c.rule(idx))) }

func (c Combined) rule(idx *Index) rule {
	rules := c.Rules.rule(idx)
	if c.Patterns.Model == nil {
		return rules
	}
	patterns := c.Patterns.rule(idx)
	return func(p int32, out []hbg.EdgeConf) []hbg.EdgeConf {
		n := len(out)
		if out = rules(p, out); len(out) > n {
			return out
		}
		// Pattern edges only add what rules did not explain, one per
		// event: of several pattern parents the lowest ID is kept.
		out = patterns(p, out)
		if len(out) > n {
			out[n] = slices.MinFunc(out[n:], func(a, b hbg.EdgeConf) int { return cmp.Compare(a.From, b.From) })
			out = out[:n+1]
		}
		return out
	}
}

// Strategies returns the standard lineup for comparison experiments, with
// the patterns/combined entries trained on ref.
func Strategies(ref []capture.IO, window time.Duration) []Strategy {
	model := Miner{Window: window}.Train(ref)
	rules := Rules{Window: window}
	return []Strategy{
		Timestamp{},
		Prefix{Window: window},
		rules,
		Patterns{Model: model},
		Combined{Rules: rules, Patterns: Patterns{Model: model}},
	}
}

// SortIOsByObservedTime sorts a copy of ios in collector order (observed
// time, then ID) — the order an offline analyzer would see.
func SortIOsByObservedTime(ios []capture.IO) []capture.IO {
	out := append([]capture.IO(nil), ios...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].ID < out[j].ID
	})
	return out
}
