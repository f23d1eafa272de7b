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

// refSends pairs every message of ios the plain way: each channel's
// messages listed in log order, under the epoch their own router's log has
// reached, then one pass per channel over a list of the unmatched ones, in
// which each message takes the first of the other side's with its key and
// drops those before it. It returns the send's ID by receive ID.
func refSends(ios []capture.IO) map[uint64]uint64 {
	type end struct {
		router, peer string
		bgp          bool
	}
	type key struct {
		from, to string
		proto    route.Protocol
		epoch    int
	}
	isSend := func(io *capture.IO) bool { return io.Type == capture.SendAdvert || io.Type == capture.SendWithdraw }
	epochs := map[end]int{}
	chans := map[key][]capture.IO{}
	for _, io := range ios {
		at := epochs[end{io.Router, io.Peer, io.Proto == route.ProtoBGP}]
		switch io.Type {
		case capture.LinkDown:
			epochs[end{io.Router, io.Peer, false}]++
		case capture.SessionDown:
			epochs[end{io.Router, io.Peer, true}]++
		case capture.SendAdvert, capture.SendWithdraw:
			k := key{io.Router, io.Peer, io.Proto, at}
			chans[k] = append(chans[k], io)
		case capture.RecvAdvert, capture.RecvWithdraw:
			k := key{io.Peer, io.Router, io.Proto, at}
			chans[k] = append(chans[k], io)
		}
	}
	out := map[uint64]uint64{}
	for _, msgs := range chans {
		var open []capture.IO
	next:
		for _, m := range msgs {
			for len(open) > 0 && isSend(&open[0]) != isSend(&m) {
				o := open[0]
				open = open[1:]
				if isSend(&m) && sameMessage(&m, &o) {
					out[o.ID] = m.ID
					continue next
				}
				if !isSend(&m) && sameMessage(&o, &m) {
					out[m.ID] = o.ID
					continue next
				}
			}
			open = append(open, m)
		}
	}
	return out
}

// sameMessage reports whether a send and a receive carry one message: the
// same kind, and the same prefix — or, when neither has one, Detail.
func sameMessage(send, recv *capture.IO) bool {
	if !sameAdvertKind(send.Type, recv.Type) {
		return false
	}
	if send.Prefix.IsValid() || recv.Prefix.IsValid() {
		return send.Prefix == recv.Prefix
	}
	return send.Detail == recv.Detail
}

// ReferenceRules is r.Infer(ios) computed the original way: a full sorted
// copy of the log, and a linear scan per channel.
func ReferenceRules(r Rules, ios []capture.IO) *hbg.Graph {
	w, cw := r.windows()
	idx := buildRefIndex(ios)
	sent := refSends(ios)
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
		if send, ok := sent[io.ID]; ok {
			g.AddEdge(send, io.ID)
		}
	}
	return g
}
