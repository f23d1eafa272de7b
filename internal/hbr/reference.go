// The reference implementation: the pre-Index rule matcher, kept as the
// differential baseline. The scenario harness's infer-fast-vs-reference
// oracle compares Rules against it — any drift in the edge set is a bug in
// the fast path, not a tolerable approximation. Only the rule tables
// (tiersFor) are shared. The §4.2 baselines in this package's tests run over
// the same refIndex.

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

// ReferenceRules is r.Infer(ios) computed the original way: a full sorted
// copy of the log and a linear scan of the peer's events per receive.
func ReferenceRules(r Rules, ios []capture.IO) *hbg.Graph {
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
