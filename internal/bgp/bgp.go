// Package bgp implements a BGP-4 speaker: eBGP and iBGP sessions,
// Adj-RIB-In, Loc-RIB, the RFC 4271 decision process (with configurable
// vendor quirks), import/export policies, withdrawals, soft reconfiguration,
// and the Add-Path extension (§8 of the paper: determinism).
//
// The speaker reproduces the I/O orderings the paper's happens-before rules
// depend on: a received advertisement is recorded before the RIB entry it
// causes, the RIB entry before the FIB entry, and the FIB entry before any
// advertisement to other routers (the Fig. 1c invariant that makes
// HBG-gated snapshots sound). Raw received routes are retained so that soft
// reconfiguration can re-run the decision process after a configuration
// change, exactly as the feasibility study (§7) observes on Cisco routers.
package bgp

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// Message is a single-prefix BGP UPDATE. PathID distinguishes multiple
// paths for the same prefix on Add-Path sessions; it is 0 otherwise.
type Message struct {
	Withdraw bool
	Prefix   netip.Prefix
	NextHop  netip.Addr
	Attrs    route.BGPAttrs
	PathID   uint32
}

func (m Message) String() string {
	if m.Withdraw {
		return fmt.Sprintf("WITHDRAW %s path=%d", m.Prefix, m.PathID)
	}
	return fmt.Sprintf("UPDATE %s nh=%s lp=%d path=[%s] id=%d",
		m.Prefix, m.NextHop, m.Attrs.EffectiveLocalPref(), m.Attrs.PathString(), m.PathID)
}

// Env is what a speaker needs from the surrounding network: message
// delivery and IGP reachability for next-hop ranking. internal/network
// implements it.
type Env interface {
	// DeliverBGP ships msg from the local session address to the peer. The
	// send I/O's capture ID rides along so the receiver can ground-truth
	// its recv event.
	DeliverBGP(local, peer netip.Addr, msg Message, sendIO uint64)
	// IGPMetric reports the IGP cost to reach nh, false if unreachable.
	IGPMetric(nh netip.Addr) (uint32, bool)
}

// Session is one configured BGP adjacency.
type Session struct {
	PeerName  string
	PeerAddr  netip.Addr
	LocalAddr netip.Addr
	PeerAS    uint32
	Type      route.PeerType
	AddPath   bool
	// RRClient marks the peer as a route-reflection client of this
	// speaker (RFC 4456). A speaker with any client session acts as a
	// route reflector: client routes are reflected to every iBGP peer and
	// non-client routes to clients, with originator-ID / cluster-list
	// loop prevention.
	RRClient bool
	// LocalPref is applied to routes received on this session (eBGP only).
	LocalPref uint32
	// ImportPolicy/ExportPolicy name policies resolved via the speaker's
	// policy lookup.
	ImportPolicy string
	ExportPolicy string
	Up           bool
}

// Timing controls the speaker's processing delays. The defaults follow the
// magnitudes measured in the paper's feasibility study (§7): FIB installs a
// few hundred microseconds to 4 ms after the decision, advertisements ~4 ms
// after. AdvertDelay must be >= FIBDelay to preserve the FIB-before-send
// invariant.
type Timing struct {
	FIBDelay    time.Duration
	AdvertDelay time.Duration
}

// DefaultTiming mirrors the §7 measurements.
func DefaultTiming() Timing {
	return Timing{FIBDelay: time.Millisecond, AdvertDelay: 4 * time.Millisecond}
}

// rawPath is one received path in the Adj-RIB-In. Attributes are held as a
// refcounted handle onto the global intern table — 500K prefixes announced
// through a route-reflector hierarchy share a handful of canonical
// attribute sets instead of half a million deep copies. Paths for a prefix
// live in a small slice sorted by PathID (almost always length 1), which is
// an order of magnitude leaner than the nested map it replaces.
type rawPath struct {
	id  uint32
	nh  netip.Addr
	seq uint64 // arrival order, used for age-based tie-breaking
	ref route.AttrRef
}

// advPath is one previously advertised path, with the interned attribute
// handle backing the stored message.
type advPath struct {
	id  uint32
	msg Message
	ref route.AttrRef
}

func findPath[T any](paths []T, id uint32, idOf func(T) uint32) int {
	for i := range paths {
		if idOf(paths[i]) == id {
			return i
		}
	}
	return -1
}

type candidate struct {
	r     route.Route
	seq   uint64
	from  netip.Addr // session the route was learned from; invalid = local
	local bool
}

// Speaker is one router's BGP process.
type Speaker struct {
	name     string
	loopback netip.Addr
	cfg      *config.BGPConfig
	policy   func(string) *config.Policy
	rec      *capture.Recorder
	sched    *netsim.Scheduler
	fib      *fib.Table
	env      Env
	timing   Timing

	sessions map[netip.Addr]*Session
	// adjIn[peer][prefix] = raw received paths (pre-policy), sorted by
	// PathID, attributes interned.
	adjIn map[netip.Addr]map[netip.Prefix][]rawPath
	// locRIB holds the selected best route per prefix (post-policy).
	locRIB   map[netip.Prefix]route.Route
	locRIBIO map[netip.Prefix]uint64
	// advertised[peer][prefix] = last messages sent, sorted by PathID.
	advertised map[netip.Addr]map[netip.Prefix][]advPath
	// networks indexes cfg.Networks (masked) so the per-prefix decision
	// process avoids a linear scan over 500K configured originations.
	networks map[netip.Prefix]bool
	arrival  uint64

	pendingFIB  map[netip.Prefix][]uint64
	pendingSync map[netip.Prefix][]uint64
	// started gates local origination: configured networks are not
	// originated until Start runs.
	started bool
}

// New creates a speaker. policy resolves policy names from the router
// config (may be nil when no policies are used).
func New(name string, loopback netip.Addr, cfg *config.BGPConfig, policy func(string) *config.Policy,
	rec *capture.Recorder, sched *netsim.Scheduler, fibTable *fib.Table, env Env, timing Timing) *Speaker {
	if timing.AdvertDelay < timing.FIBDelay {
		timing.AdvertDelay = timing.FIBDelay
	}
	if policy == nil {
		policy = func(string) *config.Policy { return nil }
	}
	s := &Speaker{
		name: name, loopback: loopback, cfg: cfg, policy: policy,
		rec: rec, sched: sched, fib: fibTable, env: env, timing: timing,
		sessions:    map[netip.Addr]*Session{},
		adjIn:       map[netip.Addr]map[netip.Prefix][]rawPath{},
		locRIB:      map[netip.Prefix]route.Route{},
		locRIBIO:    map[netip.Prefix]uint64{},
		advertised:  map[netip.Addr]map[netip.Prefix][]advPath{},
		pendingFIB:  map[netip.Prefix][]uint64{},
		pendingSync: map[netip.Prefix][]uint64{},
	}
	s.indexNetworks()
	return s
}

func (s *Speaker) indexNetworks() {
	s.networks = make(map[netip.Prefix]bool, len(s.cfg.Networks))
	for _, n := range s.cfg.Networks {
		s.networks[n.Masked()] = true
	}
}

// Name returns the owning router's name.
func (s *Speaker) Name() string { return s.name }

// SetConfig swaps the BGP configuration; callers follow with SoftReconfig.
func (s *Speaker) SetConfig(cfg *config.BGPConfig) {
	s.cfg = cfg
	s.indexNetworks()
}

// AddSession registers an adjacency. Sessions start down; the network layer
// brings them up with PeerUp once both ends exist.
func (s *Speaker) AddSession(sess Session) *Session {
	cp := sess
	s.sessions[sess.PeerAddr] = &cp
	return &cp
}

// Session returns the session to peer, or nil.
func (s *Speaker) Session(peer netip.Addr) *Session { return s.sessions[peer] }

// Sessions returns sessions sorted by peer address.
func (s *Speaker) Sessions() []*Session {
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PeerAddr.Compare(out[j].PeerAddr) < 0 })
	return out
}

// AdjIn returns the raw routes received from peer (diagnostics).
func (s *Speaker) AdjIn(peer netip.Addr) []Message {
	var out []Message
	for p, paths := range s.adjIn[peer] {
		for _, rr := range paths {
			out = append(out, Message{Prefix: p, NextHop: rr.nh, Attrs: rr.ref.Attrs(), PathID: rr.id})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Start originates the configured networks. cause is typically the initial
// config-change capture ID.
func (s *Speaker) Start(cause ...uint64) {
	s.started = true
	s.indexNetworks() // cfg may have been edited in place since New
	for _, n := range s.cfg.Networks {
		s.runDecision(n.Masked(), cause)
	}
}

// PeerUp marks the session up and advertises the current table to it.
func (s *Speaker) PeerUp(peer netip.Addr, cause ...uint64) {
	sess := s.sessions[peer]
	if sess == nil || sess.Up {
		return
	}
	sess.Up = true
	for _, p := range s.allPrefixes() {
		s.scheduleSync(p, cause)
	}
}

// PeerDown tears the session down: routes learned from the peer are purged
// and the decision process reruns for every affected prefix. cause is the
// capture ID of the triggering event (e.g. a link-down input).
func (s *Speaker) PeerDown(peer netip.Addr, cause ...uint64) {
	sess := s.sessions[peer]
	if sess == nil || !sess.Up {
		return
	}
	sess.Up = false
	affected := make([]netip.Prefix, 0, len(s.adjIn[peer]))
	for p, paths := range s.adjIn[peer] {
		affected = append(affected, p)
		for _, rr := range paths {
			rr.ref.Release()
		}
	}
	delete(s.adjIn, peer)
	for _, paths := range s.advertised[peer] {
		for _, ap := range paths {
			ap.ref.Release()
		}
	}
	delete(s.advertised, peer)
	sort.Slice(affected, func(i, j int) bool { return lessPrefix(affected[i], affected[j]) })
	for _, p := range affected {
		s.runDecision(p, cause)
	}
}

// SoftReconfig re-runs the BGP decision process over the retained raw
// Adj-RIB-In, as routers do after a configuration change. It records the
// soft-reconfiguration event (visible in Cisco logs, Fig. 5) whose cause is
// the config change, and every resulting output chains from it.
func (s *Speaker) SoftReconfig(cause ...uint64) {
	// Callers may have edited cfg in place (tests and the repair engine do);
	// rebuild the origination index before re-running the decision process.
	s.indexNetworks()
	io := s.rec.Record(capture.IO{Type: capture.SoftReconfig, Proto: route.ProtoBGP, Causes: cause})
	for _, p := range s.allPrefixes() {
		s.runDecision(p, []uint64{io.ID})
		s.scheduleSync(p, []uint64{io.ID})
	}
}

// HandleUpdate processes a BGP message delivered by the network layer.
// sendIO is the sender's send-event capture ID (ground truth for the recv).
func (s *Speaker) HandleUpdate(peer netip.Addr, msg Message, sendIO uint64) {
	sess := s.sessions[peer]
	if sess == nil || !sess.Up {
		return
	}
	typ := capture.RecvAdvert
	if msg.Withdraw {
		typ = capture.RecvWithdraw
	}
	recv := s.rec.Record(capture.IO{
		Type: typ, Proto: route.ProtoBGP, Prefix: msg.Prefix, NextHop: msg.NextHop,
		Peer: sess.PeerName, PeerAddr: peer, Attrs: msg.Attrs, Causes: []uint64{sendIO},
	})
	if msg.Withdraw {
		if paths := s.adjIn[peer][msg.Prefix]; paths != nil {
			if i := findPath(paths, msg.PathID, func(r rawPath) uint32 { return r.id }); i >= 0 {
				paths[i].ref.Release()
				paths = append(paths[:i], paths[i+1:]...)
				if len(paths) == 0 {
					delete(s.adjIn[peer], msg.Prefix)
				} else {
					s.adjIn[peer][msg.Prefix] = paths
				}
			}
		}
	} else {
		if msg.Attrs.HasAS(s.cfg.ASN) {
			return // AS-path loop: discard (recv was still recorded)
		}
		// Route-reflection loop prevention (RFC 4456).
		if msg.Attrs.OriginatorID == s.loopback || msg.Attrs.InClusterList(s.loopback) {
			return
		}
		if s.adjIn[peer] == nil {
			s.adjIn[peer] = map[netip.Prefix][]rawPath{}
		}
		s.arrival++
		np := rawPath{id: msg.PathID, nh: msg.NextHop, seq: s.arrival, ref: route.Intern(msg.Attrs)}
		paths := s.adjIn[peer][msg.Prefix]
		if i := findPath(paths, msg.PathID, func(r rawPath) uint32 { return r.id }); i >= 0 {
			paths[i].ref.Release()
			paths[i] = np
		} else {
			// Insert sorted by PathID so candidate iteration needs no re-sort.
			at := sort.Search(len(paths), func(k int) bool { return paths[k].id > msg.PathID })
			paths = append(paths, rawPath{})
			copy(paths[at+1:], paths[at:])
			paths[at] = np
		}
		s.adjIn[peer][msg.Prefix] = paths
	}
	s.runDecision(msg.Prefix, []uint64{recv.ID})
}

// allPrefixes unions Loc-RIB, Adj-RIB-In, and configured networks.
// allPrefixes returns every prefix the speaker knows about, sorted —
// callers schedule per-prefix work while iterating, and scheduler seq
// order must not depend on map iteration order.
func (s *Speaker) allPrefixes() []netip.Prefix {
	seen := map[netip.Prefix]bool{}
	for p := range s.locRIB {
		seen[p] = true
	}
	for _, byPfx := range s.adjIn {
		for p := range byPfx {
			seen[p] = true
		}
	}
	for n := range s.networks {
		seen[n] = true
	}
	out := make([]netip.Prefix, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return lessPrefix(out[i], out[j]) })
	return out
}

// candidates assembles the post-import-policy candidate set for p, sorted
// by arrival (oldest first) with the local origination, if any, first.
func (s *Speaker) candidates(p netip.Prefix) []candidate {
	var out []candidate
	if s.started && s.networks[p] {
		out = append(out, candidate{
			r: route.Route{
				Prefix: p, Proto: route.ProtoBGP, PeerType: route.PeerNone,
				Attrs: route.BGPAttrs{Origin: route.OriginIGP},
			},
			local: true,
		})
	}
	peers := make([]netip.Addr, 0, len(s.adjIn))
	for a := range s.adjIn {
		peers = append(peers, a)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Compare(peers[j]) < 0 })
	for _, peer := range peers {
		sess := s.sessions[peer]
		if sess == nil || !sess.Up {
			continue
		}
		// Paths are kept sorted by PathID; the attribute struct is copied by
		// value off the interned canonical entry (scalar writes below stay
		// local, the slices remain shared — import policies clone internally
		// before touching them).
		for _, rr := range s.adjIn[peer][p] {
			attrs := rr.ref.Attrs()
			if sess.Type == route.PeerEBGP && sess.LocalPref != 0 {
				attrs.LocalPref = sess.LocalPref
			}
			attrs, ok := s.policy(sess.ImportPolicy).Apply(p, attrs, s.cfg.ASN)
			if !ok {
				continue
			}
			out = append(out, candidate{
				r: route.Route{
					Prefix: p, NextHop: rr.nh, Proto: route.ProtoBGP,
					PeerType: sess.Type, Attrs: attrs, LearnedFrom: peer,
				},
				seq:  rr.seq,
				from: peer,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].local != out[j].local {
			return out[i].local
		}
		return out[i].seq < out[j].seq
	})
	return out
}

func (s *Speaker) runDecision(p netip.Prefix, causes []uint64) {
	cands := s.candidates(p)
	var best *candidate
	for i := range cands {
		if cands[i].local {
			best = &cands[i]
			break
		}
		if best == nil || route.CompareBGP(cands[i].r, best.r, s.env.IGPMetric, s.cfg.Quirks) < 0 {
			best = &cands[i]
		}
	}
	if best != nil && !best.local && best.r.NextHop.IsValid() {
		// BGP multipath: candidates that tie with best through the IGP
		// metric step contribute their next hops as an equal-cost set.
		// Comparing under PreferOldest reports 0 exactly at such ties (the
		// later steps are pure tie-breakers). NextHop stays the decision
		// winner's — adverts and PreferOldest semantics are untouched —
		// while NextHops carries the sorted ECMP set.
		qTie := s.cfg.Quirks
		qTie.PreferOldest = true
		hops := []netip.Addr{best.r.NextHop}
		for i := range cands {
			c := &cands[i]
			if c == best || c.local || !c.r.NextHop.IsValid() {
				continue
			}
			if route.CompareBGP(c.r, best.r, s.env.IGPMetric, qTie) == 0 {
				hops = append(hops, c.r.NextHop)
			}
		}
		if set := route.CanonHops(hops); len(set) > 1 {
			best.r.NextHops = set
		}
	}
	cur, had := s.locRIB[p]
	switch {
	case best == nil && had:
		delete(s.locRIB, p)
		delete(s.locRIBIO, p)
		io := s.rec.Record(capture.IO{
			Type: capture.RIBRemove, Proto: route.ProtoBGP, Prefix: p,
			NextHop: cur.NextHop, Attrs: cur.Attrs, Causes: causes,
		})
		s.scheduleFIB(p, []uint64{io.ID})
		s.scheduleSync(p, []uint64{io.ID})
	case best != nil && (!had || !routeEqual(cur, best.r)):
		s.locRIB[p] = best.r
		io := s.rec.Record(capture.IO{
			Type: capture.RIBInstall, Proto: route.ProtoBGP, Prefix: p,
			NextHop: best.r.NextHop, NextHops: best.r.NextHops, Attrs: best.r.Attrs, Causes: causes,
		})
		s.locRIBIO[p] = io.ID
		s.scheduleFIB(p, []uint64{io.ID})
		s.scheduleSync(p, []uint64{io.ID})
	default:
		// Best unchanged. Add-Path sessions still need a resync because the
		// candidate *set* may have changed.
		if s.anyAddPath() {
			s.scheduleSync(p, causes)
		}
	}
}

func (s *Speaker) anyAddPath() bool {
	for _, sess := range s.sessions {
		if sess.AddPath && sess.Up {
			return true
		}
	}
	return false
}

func routeEqual(a, b route.Route) bool {
	if a.Prefix != b.Prefix || a.NextHop != b.NextHop || a.PeerType != b.PeerType ||
		a.LearnedFrom != b.LearnedFrom || !a.SameHops(b) {
		return false
	}
	return a.Attrs.EffectiveLocalPref() == b.Attrs.EffectiveLocalPref() &&
		a.Attrs.MED == b.Attrs.MED && a.Attrs.Origin == b.Attrs.Origin &&
		route.SameUint32Slice(a.Attrs.ASPath, b.Attrs.ASPath)
}

// scheduleFIB queues a FIB synchronization for p after FIBDelay. Multiple
// triggers merge; causes accumulate.
func (s *Speaker) scheduleFIB(p netip.Prefix, causes []uint64) {
	if pend, ok := s.pendingFIB[p]; ok {
		s.pendingFIB[p] = append(pend, causes...)
		return
	}
	s.pendingFIB[p] = append([]uint64(nil), causes...)
	s.sched.After(s.timing.FIBDelay, func() { s.flushFIB(p) })
}

func (s *Speaker) flushFIB(p netip.Prefix) {
	causes := s.pendingFIB[p]
	delete(s.pendingFIB, p)
	best, ok := s.locRIB[p]
	if !ok {
		s.fib.Withdraw(route.ProtoBGP, p, causes...)
		return
	}
	if !best.NextHop.IsValid() {
		// Locally originated: the connected/static source already covers
		// the prefix; BGP does not add a FIB entry for it.
		s.fib.Withdraw(route.ProtoBGP, p, causes...)
		return
	}
	s.fib.Offer(best, causes...)
}

// scheduleSync queues peer advertisement synchronization for p.
func (s *Speaker) scheduleSync(p netip.Prefix, causes []uint64) {
	if pend, ok := s.pendingSync[p]; ok {
		s.pendingSync[p] = append(pend, causes...)
		return
	}
	s.pendingSync[p] = append([]uint64(nil), causes...)
	s.sched.After(s.timing.AdvertDelay, func() { s.flushSync(p) })
}

func (s *Speaker) flushSync(p netip.Prefix) {
	causes := s.pendingSync[p]
	delete(s.pendingSync, p)
	for _, sess := range s.Sessions() {
		if !sess.Up {
			continue
		}
		s.syncPeer(sess, p, causes)
	}
}

// syncPeer diffs the desired exports for (sess, p) against what was last
// advertised, emitting updates and withdrawals.
func (s *Speaker) syncPeer(sess *Session, p netip.Prefix, causes []uint64) {
	desired := s.desiredExports(sess, p)
	if s.advertised[sess.PeerAddr] == nil {
		s.advertised[sess.PeerAddr] = map[netip.Prefix][]advPath{}
	}
	cur := s.advertised[sess.PeerAddr][p]
	// Withdraw stale paths (cur is sorted by PathID).
	kept := cur[:0]
	for _, ap := range cur {
		if _, still := desired[ap.id]; still {
			kept = append(kept, ap)
			continue
		}
		w := Message{Withdraw: true, Prefix: p, PathID: ap.id}
		s.send(sess, w, causes)
		ap.ref.Release()
	}
	cur = kept
	// Advertise new/changed paths in PathID order.
	ids := make([]uint32, 0, len(desired))
	for id := range desired {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		msg := desired[id]
		i := findPath(cur, id, func(a advPath) uint32 { return a.id })
		if i >= 0 && messageEqual(cur[i].msg, msg) {
			continue
		}
		s.send(sess, msg, causes)
		// Intern the advertised attributes so the retained copy shares the
		// canonical slices with every other holder of the same set.
		ref := route.Intern(msg.Attrs)
		msg.Attrs = ref.Attrs()
		if i >= 0 {
			cur[i].ref.Release()
			cur[i] = advPath{id: id, msg: msg, ref: ref}
		} else {
			at := sort.Search(len(cur), func(k int) bool { return cur[k].id > id })
			cur = append(cur, advPath{})
			copy(cur[at+1:], cur[at:])
			cur[at] = advPath{id: id, msg: msg, ref: ref}
		}
	}
	if len(cur) == 0 {
		delete(s.advertised[sess.PeerAddr], p)
	} else {
		s.advertised[sess.PeerAddr][p] = cur
	}
}

func messageEqual(a, b Message) bool {
	if a.Withdraw != b.Withdraw || a.Prefix != b.Prefix || a.NextHop != b.NextHop || a.PathID != b.PathID {
		return false
	}
	return a.Attrs.LocalPref == b.Attrs.LocalPref && a.Attrs.MED == b.Attrs.MED &&
		a.Attrs.Origin == b.Attrs.Origin &&
		route.SameUint32Slice(a.Attrs.ASPath, b.Attrs.ASPath) &&
		a.Attrs.OriginatorID == b.Attrs.OriginatorID &&
		route.SameAddrSlice(a.Attrs.ClusterList, b.Attrs.ClusterList)
}

// desiredExports computes what should currently be advertised to sess for
// prefix p: the best route, or all candidate paths on Add-Path sessions.
func (s *Speaker) desiredExports(sess *Session, p netip.Prefix) map[uint32]Message {
	out := map[uint32]Message{}
	emit := func(c candidate, pathID uint32) {
		// Split horizon: never advertise a route back to the session it
		// was learned from.
		if c.from.IsValid() && c.from == sess.PeerAddr {
			return
		}
		reflecting := false
		if sess.Type == route.PeerIBGP && c.r.PeerType == route.PeerIBGP {
			// iBGP-learned routes are only re-advertised by a route
			// reflector, following RFC 4456: client routes go to every
			// iBGP peer, non-client routes only to clients.
			fromSess := s.sessions[c.from]
			fromClient := fromSess != nil && fromSess.RRClient
			if !fromClient && !sess.RRClient {
				return
			}
			reflecting = true
		}
		// No clone: Apply leaves attrs untouched when no policy applies and
		// clones internally otherwise; the rewrite branches below always
		// build fresh slices before mutating.
		attrs, ok := s.policy(sess.ExportPolicy).Apply(p, c.r.Attrs, s.cfg.ASN)
		if !ok {
			return
		}
		msg := Message{Prefix: p, PathID: pathID}
		switch {
		case sess.Type == route.PeerEBGP:
			attrs.ASPath = append([]uint32{s.cfg.ASN}, attrs.ASPath...)
			attrs.LocalPref = 0 // not carried over eBGP
			if !c.local {
				attrs.MED = 0 // MED is not propagated beyond the neighboring AS
			}
			attrs.OriginatorID = netip.Addr{}
			attrs.ClusterList = nil
			msg.NextHop = sess.LocalAddr
		case reflecting:
			// A reflector must not change the next hop; it stamps the
			// originator and its own cluster ID instead.
			msg.NextHop = c.r.NextHop
			if !attrs.OriginatorID.IsValid() {
				attrs.OriginatorID = c.from
			}
			attrs.ClusterList = append([]netip.Addr{s.loopback}, attrs.ClusterList...)
		default:
			// iBGP next-hop-self on the loopback; the IGP resolves it.
			msg.NextHop = s.loopback
		}
		msg.Attrs = attrs
		out[pathID] = msg
	}
	if sess.AddPath {
		for _, c := range s.candidates(p) {
			id := uint32(1) // local origination
			if !c.local {
				id = uint32(c.seq + 1)
			}
			emit(c, id)
		}
		return out
	}
	best, ok := s.locRIB[p]
	if !ok {
		return out
	}
	c := candidate{r: best, from: best.LearnedFrom, local: !best.LearnedFrom.IsValid()}
	emit(c, 0)
	return out
}

func (s *Speaker) send(sess *Session, msg Message, causes []uint64) {
	typ := capture.SendAdvert
	if msg.Withdraw {
		typ = capture.SendWithdraw
	}
	io := s.rec.Record(capture.IO{
		Type: typ, Proto: route.ProtoBGP, Prefix: msg.Prefix, NextHop: msg.NextHop,
		Peer: sess.PeerName, PeerAddr: sess.PeerAddr, Attrs: msg.Attrs, Causes: causes,
	})
	s.env.DeliverBGP(sess.LocalAddr, sess.PeerAddr, msg, io.ID)
}

func lessPrefix(a, b netip.Prefix) bool {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c < 0
	}
	return a.Bits() < b.Bits()
}
