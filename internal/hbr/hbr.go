// Package hbr infers happens-before relationships (HBRs) between captured
// control-plane I/Os using only their observable properties — router,
// type, protocol, prefix, peer, and (skewed) timestamps — implementing the
// four strategies of §4.2:
//
//   - Timestamp: order events by observed wall clock (filter only; as the
//     paper notes, sequential events are not necessarily dependent).
//   - Prefix: relate I/Os sharing a prefix (filter only).
//   - Rules: protocol-generic and protocol-specific rules from §4.1, e.g.
//     BGP's [install P in RIB] → [send advertisement for P] versus EIGRP's
//     [install P in FIB] → [send advertisement for P].
//   - Patterns: statistics mined from a policy-compliant reference log,
//     each inferred edge annotated with a confidence.
//
// The Combined strategy layers pattern mining under rule matching, which is
// the configuration the paper expects to be necessary in practice.
//
// All strategies run over a shared immutable Index (positions sorted once,
// per-router lists, keyed send lookup) as one per-event rule each, sharded
// across a worker pool; reference.go preserves the original
// implementations as the differential baseline.
package hbr

import (
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
)

// Strategy is one inference algorithm.
type Strategy interface {
	Name() string
	Infer(ios []capture.IO) *hbg.Graph
}

// sameAdvertKind reports whether a send and recv describe the same message
// kind (advert vs withdraw).
func sameAdvertKind(send, recv capture.Type) bool {
	return (send == capture.SendAdvert && recv == capture.RecvAdvert) ||
		(send == capture.SendWithdraw && recv == capture.RecvWithdraw)
}

// Metrics compares an inferred graph against ground truth.
type Metrics struct {
	TP, FP, FN int
	Precision  float64
	Recall     float64
	F1         float64
}

// Evaluate scores inferred edges against the simulator's causal tags. Only
// edges whose endpoints both appear in the supplied log count.
func Evaluate(inferred *hbg.Graph, truth []capture.IO) Metrics {
	truthEdges := map[hbg.Edge]bool{}
	present := map[uint64]bool{}
	for _, io := range truth {
		present[io.ID] = true
	}
	for _, io := range truth {
		for _, c := range io.Causes {
			if present[c] {
				truthEdges[hbg.Edge{From: c, To: io.ID}] = true
			}
		}
	}
	var m Metrics
	for _, e := range inferred.Edges() {
		if truthEdges[e] {
			m.TP++
		} else {
			m.FP++
		}
	}
	m.FN = len(truthEdges) - m.TP
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// Timestamp is the naive baseline: each event is linked to the immediately
// preceding event on the same router. The paper: "timestamps cannot be
// used as the sole mechanism for identifying HBRs" — this strategy exists
// to quantify that claim.
type Timestamp struct{}

// Name implements Strategy.
func (Timestamp) Name() string { return "timestamp" }

// Infer implements Strategy.
func (t Timestamp) Infer(ios []capture.IO) *hbg.Graph { return t.InferIndex(NewIndex(ios)) }

// InferIndex implements IndexInferrer: each event's only parent is the one
// before it in its router's list.
func (t Timestamp) InferIndex(idx *Index) *hbg.Graph { return idx.graph(idx.run(t.rule(idx))) }

func (Timestamp) rule(idx *Index) rule {
	return func(p int32, out []hbg.EdgeConf) []hbg.EdgeConf {
		to := idx.at(p).ID
		idx.precedingOnRouter(p, 0, func(prev *capture.IO) bool {
			out = append(out, hbg.EdgeConf{From: prev.ID, To: to, Conf: 1})
			return false
		})
		return out
	}
}

// Prefix links every output to all preceding same-prefix events on the same
// router within Window, plus cross-router same-prefix send→recv pairs.
// High recall, poor precision: a filter, not an identifier.
type Prefix struct {
	// Window bounds how far back relationships reach (default 500ms).
	Window time.Duration
}

// Name implements Strategy.
func (Prefix) Name() string { return "prefix" }

// Infer implements Strategy.
func (p Prefix) Infer(ios []capture.IO) *hbg.Graph { return p.InferIndex(NewIndex(ios)) }

// InferIndex implements IndexInferrer.
func (p Prefix) InferIndex(idx *Index) *hbg.Graph { return idx.graph(idx.run(p.rule(idx))) }

func (p Prefix) rule(idx *Index) rule {
	window := p.LookbackWindow()
	return func(pos int32, out []hbg.EdgeConf) []hbg.EdgeConf {
		io := idx.at(pos)
		if !io.HasPrefix() {
			return out
		}
		idx.precedingOnRouter(pos, window, func(cand *capture.IO) bool {
			if cand.Prefix == io.Prefix {
				out = append(out, hbg.EdgeConf{From: cand.ID, To: io.ID, Conf: 1})
			}
			return true
		})
		if io.Type == capture.RecvAdvert || io.Type == capture.RecvWithdraw {
			if send := idx.matchSendForRecv(io, window); send != nil {
				out = append(out, hbg.EdgeConf{From: send.ID, To: io.ID, Conf: 1})
			}
		}
		return out
	}
}
