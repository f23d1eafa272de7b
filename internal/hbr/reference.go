// Reference implementations: the pre-Index inference code, kept as the
// differential baseline. The scenario harness's infer-fast-vs-reference
// oracle compares the shared-index fast path against these — any drift in
// edge sets or confidences is a bug in the fast path, not a tolerable
// approximation. Only the rule tables (tiersFor) are shared.

package hbr

import (
	"sort"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
	"hbverify/internal/route"
)

// refIndex is the original per-strategy index: a full sorted copy of the
// log plus per-router event copies, rebuilt on every Infer call.
type refIndex struct {
	all      []capture.IO
	byRouter map[string][]capture.IO
}

func buildRefIndex(ios []capture.IO) *refIndex {
	idx := &refIndex{byRouter: map[string][]capture.IO{}}
	idx.all = append(idx.all, ios...)
	sort.SliceStable(idx.all, func(i, j int) bool {
		if idx.all[i].Time != idx.all[j].Time {
			return idx.all[i].Time < idx.all[j].Time
		}
		return idx.all[i].ID < idx.all[j].ID
	})
	for _, io := range idx.all {
		idx.byRouter[io.Router] = append(idx.byRouter[io.Router], io)
	}
	return idx
}

func (idx *refIndex) precedingOnRouter(io capture.IO, window time.Duration, visit func(capture.IO) bool) {
	evs := idx.byRouter[io.Router]
	pos := sort.Search(len(evs), func(i int) bool {
		if evs[i].Time != io.Time {
			return evs[i].Time > io.Time
		}
		return evs[i].ID >= io.ID
	})
	for i := pos - 1; i >= 0; i-- {
		if window > 0 && io.Time.Sub(evs[i].Time) > window {
			return
		}
		if !visit(evs[i]) {
			return
		}
	}
}

// matchSendForRecv is the original matcher: a linear scan over every
// event the peer router ever logged.
func (idx *refIndex) matchSendForRecv(recv capture.IO, window time.Duration) (capture.IO, bool) {
	var best capture.IO
	var bestDist time.Duration
	found := false
	for _, cand := range idx.byRouter[recv.Peer] {
		if !cand.Type.IsOutput() || !sameAdvertKind(cand.Type, recv.Type) {
			continue
		}
		if cand.Proto != recv.Proto || cand.Peer != recv.Router {
			continue
		}
		if recv.HasPrefix() || cand.HasPrefix() {
			if cand.Prefix != recv.Prefix {
				continue
			}
		} else if cand.Detail != recv.Detail {
			continue
		}
		d := recv.Time.Sub(cand.Time)
		if d < 0 {
			d = -d
		}
		if window > 0 && d > window {
			continue
		}
		if !found || d < bestDist {
			best, bestDist, found = cand, d, true
		}
	}
	return best, found
}

// Reference wraps one of the standard strategies with its pre-Index
// implementation. Unrecognized strategies fall through to their own Infer.
func Reference(s Strategy) Strategy { return refStrategy{base: s} }

type refStrategy struct{ base Strategy }

func (r refStrategy) Name() string { return r.base.Name() }

func (r refStrategy) Infer(ios []capture.IO) *hbg.Graph {
	switch s := r.base.(type) {
	case Timestamp:
		return refTimestampInfer(ios)
	case Prefix:
		return refPrefixInfer(s, ios)
	case Rules:
		return refRulesInfer(s, ios)
	case Patterns:
		return refPatternsInfer(s, ios)
	case Combined:
		return refCombinedInfer(s, ios)
	default:
		return r.base.Infer(ios)
	}
}

// ReferenceStrategies mirrors Strategies with the pre-Index training and
// inference paths, for differential oracles and benchmark baselines.
func ReferenceStrategies(ref []capture.IO, window time.Duration) []Strategy {
	model := refTrain(Miner{Window: window}, ref)
	rules := Rules{Window: window}
	return []Strategy{
		Reference(Timestamp{}),
		Reference(Prefix{Window: window}),
		Reference(rules),
		Reference(Patterns{Model: model}),
		Reference(Combined{Rules: rules, Patterns: Patterns{Model: model}}),
	}
}

func refTimestampInfer(ios []capture.IO) *hbg.Graph {
	idx := buildRefIndex(ios)
	g := hbg.New()
	for _, io := range ios {
		g.AddNode(io)
	}
	for router := range idx.byRouter {
		evs := idx.byRouter[router]
		for i := 1; i < len(evs); i++ {
			g.AddEdge(evs[i-1].ID, evs[i].ID)
		}
	}
	return g
}

func refPrefixInfer(p Prefix, ios []capture.IO) *hbg.Graph {
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

func refRulesInfer(r Rules, ios []capture.IO) *hbg.Graph {
	w, cw, xw := r.windows()
	idx := buildRefIndex(ios)
	g := hbg.New()
	for _, io := range ios {
		g.AddNode(io)
	}
	for _, io := range idx.all {
		io := io
		if io.Proto == route.ProtoOSPF && (io.Type == capture.RIBInstall || io.Type == capture.RIBRemove) {
			matched := false
			idx.precedingOnRouter(io, w, func(cand capture.IO) bool {
				switch cand.Type {
				case capture.RecvAdvert, capture.RecvWithdraw:
					if cand.Proto == route.ProtoOSPF {
						g.AddEdge(cand.ID, io.ID)
						matched = true
					}
				case capture.SoftReconfig, capture.LinkDown, capture.LinkUp:
					g.AddEdge(cand.ID, io.ID)
					matched = true
				}
				return true
			})
			if !matched {
				idx.precedingOnRouter(io, cw, func(cand capture.IO) bool {
					if cand.Type == capture.ConfigChange {
						g.AddEdge(cand.ID, io.ID)
						return false
					}
					return true
				})
			}
			continue
		}
		for _, t := range tiersFor(&io) {
			var found *capture.IO
			window := w
			if t == lhsConfig {
				window = cw
			}
			idx.precedingOnRouter(io, window, func(cand capture.IO) bool {
				if t.matches(&io, &cand) {
					c := cand
					found = &c
					return false
				}
				return true
			})
			if found != nil {
				g.AddEdge(found.ID, io.ID)
				break
			}
		}
		if io.Type == capture.RecvAdvert || io.Type == capture.RecvWithdraw {
			if send, ok := idx.matchSendForRecv(io, xw); ok {
				g.AddEdge(send.ID, io.ID)
			}
		}
	}
	return g
}

// refTrain is the original miner, interface-keyed totals map included.
func refTrain(m Miner, ref []capture.IO) *Model {
	window := m.Window
	if window == 0 {
		window = 500 * time.Millisecond
	}
	idx := buildRefIndex(ref)
	hits := map[pairKey]int{}
	totals := map[[2]interface{}]int{} // keyed by (bType,bProto)
	for _, b := range idx.all {
		b := b
		tkey := [2]interface{}{b.Type, b.Proto}
		totals[tkey]++
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
				k := pairKey{send.Type, send.Proto, b.Type, b.Proto, true}
				hits[k]++
			}
		}
	}
	model := &Model{conf: map[pairKey]float64{}, window: window}
	for k, h := range hits {
		tkey := [2]interface{}{k.bType, k.bProto}
		if t := totals[tkey]; t > 0 {
			model.conf[k] = float64(h) / float64(t)
		}
	}
	return model
}

func refPatternsInfer(p Patterns, ios []capture.IO) *hbg.Graph {
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
	idx := buildRefIndex(ios)
	for _, b := range idx.all {
		b := b
		matched := map[pairKey]bool{}
		idx.precedingOnRouter(b, p.Model.window, func(a capture.IO) bool {
			if a.HasPrefix() && b.HasPrefix() && a.Prefix != b.Prefix {
				return true
			}
			k := pairKey{a.Type, a.Proto, b.Type, b.Proto, false}
			if matched[k] {
				return true
			}
			if c, ok := p.Model.conf[k]; ok && c >= threshold {
				matched[k] = true
				g.AddEdgeConf(a.ID, b.ID, c)
			}
			return true
		})
		if b.Type == capture.RecvAdvert || b.Type == capture.RecvWithdraw {
			if send, ok := idx.matchSendForRecv(b, p.Model.window); ok {
				k := pairKey{send.Type, send.Proto, b.Type, b.Proto, true}
				if c, ok := p.Model.conf[k]; ok && c >= threshold {
					g.AddEdgeConf(send.ID, b.ID, c)
				}
			}
		}
	}
	return g
}

func refCombinedInfer(c Combined, ios []capture.IO) *hbg.Graph {
	g := refRulesInfer(c.Rules, ios)
	if c.Patterns.Model == nil {
		return g
	}
	pg := refPatternsInfer(c.Patterns, ios)
	for _, e := range pg.Edges() {
		if g.HasEdge(e.From, e.To) {
			continue
		}
		if len(g.Parents(e.To)) > 0 {
			continue
		}
		g.AddEdgeConf(e.From, e.To, pg.Confidence(e.From, e.To))
	}
	return g
}
