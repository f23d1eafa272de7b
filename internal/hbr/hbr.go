// Package hbr infers happens-before relationships (HBRs) between captured
// control-plane I/Os using only their observable properties — router,
// type, protocol, prefix, peer, and (skewed) timestamps. Production infers
// one way, by §4.2's rule matching: Rules applies the protocol-generic and
// protocol-specific rules of §4.1, e.g. BGP's [install P in RIB] → [send
// advertisement for P] versus EIGRP's [install P in FIB] → [send
// advertisement for P], and Incremental keeps its graph current as the
// capture log grows and is compacted.
//
// Rules runs over a shared immutable Index (positions sorted once,
// per-router lists, keyed send lookup) as one per-event rule, sharded
// across a worker pool; reference.go keeps the original implementation,
// ReferenceRules, as the differential baseline. §4.2's other strategies —
// timestamps, prefixes, mined patterns, and patterns under rules — are
// baselines the E8 benchmark compares rules against, and live beside it in
// this package's tests.
package hbr

import (
	"hbverify/internal/capture"
	"hbverify/internal/hbg"
)

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
