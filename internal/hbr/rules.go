// Rule matching (§4.2): protocol-generic and protocol-specific rules from
// §4.1 applied over the timestamp- and prefix-filtered I/O stream.

package hbr

import (
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/hbg"
	"hbverify/internal/route"
)

// Rules is the rule-matching strategy. Given an I/O that matches the
// right-hand side of a rule, it searches the filtered stream for the
// nearest I/O matching the left-hand side.
type Rules struct {
	// Window bounds same-router matches for route-driven events
	// (default 500ms).
	Window time.Duration
	// ConfigWindow bounds matches against configuration changes, which can
	// precede their effects by tens of seconds (§7 measured 25s between
	// the TTY change and the soft reconfiguration). Default 60s.
	ConfigWindow time.Duration
	// CrossWindow bounds cross-router send→recv matching (default 500ms).
	CrossWindow time.Duration
}

// Name implements Strategy.
func (Rules) Name() string { return "rules" }

func (r Rules) windows() (w, cw, xw time.Duration) {
	w, cw, xw = r.Window, r.ConfigWindow, r.CrossWindow
	if w == 0 {
		w = 500 * time.Millisecond
	}
	if cw == 0 {
		cw = 60 * time.Second
	}
	if xw == 0 {
		xw = 500 * time.Millisecond
	}
	return
}

// lhs is one left-hand-side pattern of a rule. An output's patterns form
// prioritized tiers: lower tiers are preferred; within a tier the nearest
// preceding match wins.
type lhs uint8

const (
	// [config change]: the gap to its effects can be large, so this is the
	// one pattern matched within ConfigWindow rather than Window.
	lhsConfig lhs = iota
	// Every plausible same-router trigger of a RIB change, competing in one
	// tier — the nearest preceding one wins. A strict priority among them
	// would mis-attribute a reselection to a stale (but still in-window)
	// receive when a soft reconfiguration happened in between.
	// [R receive C advertisement for P] → [R install P in C RIB];
	// withdrawals also trigger reselection.
	lhsRIBTrigger
	// [R install P in the C RIB] → [R install P in the FIB], or a link event.
	lhsFIBTrigger
	lhsFIBSamePrefix // an install/remove of P in the FIB
	lhsRIBSamePrefix // an install/remove of P in the output's own protocol's RIB
	lhsReflood       // the received OSPF LSA (same Detail) a sent LSA re-floods
	lhsLink
	lhsSoftReconfig
)

// The rule tables of §4.1, one per kind of output.
var (
	// [config change] → [soft reconfiguration].
	tiersSoftReconfig = []lhs{lhsConfig}
	// The second tier covers initial or direct configuration effects.
	tiersRIB = []lhs{lhsRIBTrigger, lhsConfig}
	tiersFIB = []lhs{lhsFIBTrigger, lhsConfig}
	// With EIGRP, [R install P in FIB] → [R send EIGRP advertisement for P].
	tiersSendEIGRP = []lhs{lhsFIBSamePrefix, lhsRIBSamePrefix}
	// Flooding: a sent LSA is caused by the received LSA it re-floods, or
	// by a local event that triggered re-origination.
	tiersSendOSPF = []lhs{lhsReflood, lhsLink, lhsConfig}
	// With BGP (and RIP), [R install P in C RIB] → [R send C advertisement
	// for P].
	tiersSend = []lhs{lhsRIBSamePrefix, lhsSoftReconfig, lhsConfig}
)

// tiersFor returns the prioritized left-hand-side patterns for one I/O.
func tiersFor(io *capture.IO) []lhs {
	switch io.Type {
	case capture.SoftReconfig:
		return tiersSoftReconfig
	case capture.RIBInstall, capture.RIBRemove:
		return tiersRIB
	case capture.FIBInstall, capture.FIBRemove:
		return tiersFIB
	case capture.SendAdvert, capture.SendWithdraw:
		switch io.Proto {
		case route.ProtoEIGRP:
			return tiersSendEIGRP
		case route.ProtoOSPF:
			return tiersSendOSPF
		}
		return tiersSend
	}
	return nil
}

// matches reports whether c fits pattern l as a cause of io.
func (l lhs) matches(io, c *capture.IO) bool {
	switch l {
	case lhsConfig:
		return c.Type == capture.ConfigChange
	case lhsRIBTrigger:
		switch c.Type {
		case capture.RecvAdvert, capture.RecvWithdraw:
			return c.Proto == io.Proto && (c.Prefix == io.Prefix || !c.HasPrefix())
		case capture.SoftReconfig, capture.LinkDown, capture.LinkUp:
			return true
		}
		return false
	case lhsFIBTrigger:
		return (c.Type == capture.RIBInstall || c.Type == capture.RIBRemove) && c.Prefix == io.Prefix ||
			lhsLink.matches(io, c)
	case lhsFIBSamePrefix:
		return (c.Type == capture.FIBInstall || c.Type == capture.FIBRemove) && c.Prefix == io.Prefix
	case lhsRIBSamePrefix:
		return (c.Type == capture.RIBInstall || c.Type == capture.RIBRemove) &&
			c.Proto == io.Proto && c.Prefix == io.Prefix
	case lhsReflood:
		return c.Type == capture.RecvAdvert && c.Proto == route.ProtoOSPF && c.Detail == io.Detail
	case lhsLink:
		return c.Type == capture.LinkDown || c.Type == capture.LinkUp
	case lhsSoftReconfig:
		return c.Type == capture.SoftReconfig
	}
	return false
}

// Infer implements Strategy.
func (r Rules) Infer(ios []capture.IO) *hbg.Graph { return r.InferIndex(NewIndex(ios)) }

// InferIndex implements IndexInferrer: per-event rule matching over the
// shared index, sharded across workers.
func (r Rules) InferIndex(idx *Index) *hbg.Graph { return idx.graph(idx.run(r.rule(idx))) }

// rule applies the rule tables to one event.
func (r Rules) rule(idx *Index) rule {
	w, cw, xw := r.windows()
	return func(p int32, out []hbg.EdgeConf) []hbg.EdgeConf {
		io := idx.at(p)
		edge := func(from *capture.IO) { out = append(out, hbg.EdgeConf{From: from.ID, To: io.ID, Conf: 1}) }
		tiers := tiersFor(io)
		// Link-state RIB changes come out of a debounced SPF run with
		// potentially many antecedent LSA receipts; collect all in-window
		// matches instead of just the nearest, and fall back to the
		// configuration tier only when there is none.
		if io.Proto == route.ProtoOSPF && (io.Type == capture.RIBInstall || io.Type == capture.RIBRemove) {
			matched := len(out)
			idx.precedingOnRouter(p, w, func(cand *capture.IO) bool {
				switch cand.Type {
				case capture.RecvAdvert, capture.RecvWithdraw:
					if cand.Proto == route.ProtoOSPF {
						edge(cand)
					}
				case capture.SoftReconfig, capture.LinkDown, capture.LinkUp:
					edge(cand)
				}
				return true
			})
			if matched != len(out) {
				return out
			}
			tiers = tiers[1:]
		}
		for _, t := range tiers {
			window, found := w, len(out)
			if t == lhsConfig {
				window = cw
			}
			idx.precedingOnRouter(p, window, func(cand *capture.IO) bool {
				if t.matches(io, cand) {
					edge(cand)
					return false
				}
				return true
			})
			if found != len(out) {
				break
			}
		}
		if io.Type == capture.RecvAdvert || io.Type == capture.RecvWithdraw {
			// Cross-router rule: [R' send C advertisement for P] →
			// [R receive C advertisement for P].
			if send := idx.matchSendForRecv(io, xw); send != nil {
				edge(send)
			}
		}
		return out
	}
}
