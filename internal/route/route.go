// Package route defines the route and attribute types shared by every
// routing protocol implementation in this repository, plus the
// administrative-distance table used when protocols compete for a FIB slot.
package route

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// Protocol identifies the routing process that produced a route or a
// control-plane I/O.
type Protocol uint8

// Known protocols. Connected and Static are not "protocols" on the wire but
// occupy FIB slots and participate in admin-distance arbitration like any
// other source.
const (
	ProtoUnknown Protocol = iota
	ProtoConnected
	ProtoStatic
	ProtoBGP
	ProtoOSPF
	ProtoRIP
	ProtoEIGRP
)

var protoNames = [...]string{"unknown", "connected", "static", "bgp", "ospf", "rip", "eigrp"}

func (p Protocol) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// ParseProtocol is the inverse of Protocol.String. It returns ProtoUnknown
// for unrecognized names.
func ParseProtocol(s string) Protocol {
	for i, n := range protoNames {
		if strings.EqualFold(s, n) {
			return Protocol(i)
		}
	}
	return ProtoUnknown
}

// AdminDistance returns the default administrative distance used to arbitrate
// among protocols offering routes for the same prefix, following the common
// Cisco defaults. Lower wins. External vs internal BGP is distinguished by
// the caller via the BGP route's PeerType.
func AdminDistance(p Protocol, internalBGP bool) uint8 {
	switch p {
	case ProtoConnected:
		return 0
	case ProtoStatic:
		return 1
	case ProtoEIGRP:
		return 90
	case ProtoOSPF:
		return 110
	case ProtoRIP:
		return 120
	case ProtoBGP:
		if internalBGP {
			return 200
		}
		return 20
	default:
		return 255
	}
}

// Origin is the BGP ORIGIN attribute.
type Origin uint8

// BGP origin codes in preference order (IGP best).
const (
	OriginIGP Origin = iota
	OriginEGP
	OriginIncomplete
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "igp"
	case OriginEGP:
		return "egp"
	default:
		return "incomplete"
	}
}

// PeerType distinguishes the session a BGP route was learned over.
type PeerType uint8

// Session kinds.
const (
	PeerNone PeerType = iota
	PeerEBGP
	PeerIBGP
)

func (p PeerType) String() string {
	switch p {
	case PeerEBGP:
		return "ebgp"
	case PeerIBGP:
		return "ibgp"
	default:
		return "none"
	}
}

// BGPAttrs carries the path attributes a BGP UPDATE propagates. The zero
// value is a route with default preference and empty AS path.
type BGPAttrs struct {
	LocalPref uint32 // 0 means unset; default effective value is 100
	ASPath    []uint32
	MED       uint32
	Origin    Origin
	// Communities are opaque tags used by policy; we carry them so filters
	// and captures can match on them.
	Communities []uint32
	// OriginatorID and ClusterList implement route-reflection loop
	// prevention (RFC 4456): the reflector stamps the route's original
	// iBGP speaker and prepends its cluster ID on each reflection hop.
	OriginatorID netip.Addr
	ClusterList  []netip.Addr
}

// EffectiveLocalPref returns LocalPref, substituting the conventional
// default of 100 when unset.
func (a BGPAttrs) EffectiveLocalPref() uint32 {
	if a.LocalPref == 0 {
		return 100
	}
	return a.LocalPref
}

// Clone deep-copies the attributes so senders and receivers never alias the
// same AS-path slice.
func (a BGPAttrs) Clone() BGPAttrs {
	out := a
	out.ASPath = append([]uint32(nil), a.ASPath...)
	out.Communities = append([]uint32(nil), a.Communities...)
	out.ClusterList = append([]netip.Addr(nil), a.ClusterList...)
	return out
}

// InClusterList reports whether id appears in the cluster list.
func (a BGPAttrs) InClusterList(id netip.Addr) bool {
	for _, c := range a.ClusterList {
		if c == id {
			return true
		}
	}
	return false
}

// PathString renders the AS path as "65001 65002".
func (a BGPAttrs) PathString() string {
	var b strings.Builder
	for i, as := range a.ASPath {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", as)
	}
	return b.String()
}

// HasAS reports whether asn appears in the AS path (loop detection).
func (a BGPAttrs) HasAS(asn uint32) bool {
	for _, x := range a.ASPath {
		if x == asn {
			return true
		}
	}
	return false
}

// Route is a protocol-agnostic candidate for FIB installation. NextHop may be
// invalid (netip.Addr zero value) for locally originated/connected routes, in
// which case OutIface names the delivery interface.
type Route struct {
	Prefix   netip.Prefix
	NextHop  netip.Addr
	OutIface string
	Proto    Protocol
	PeerType PeerType // only meaningful for BGP
	Metric   uint32   // protocol-internal metric (IGP cost, hop count, ...)
	Attrs    BGPAttrs // only meaningful for BGP
	// LearnedFrom is the router-ID or neighbor address the route came from,
	// used in provenance displays; invalid for local routes.
	LearnedFrom netip.Addr
	// NextHops is the full equal-cost next-hop set for multipath routes,
	// sorted and deduplicated, with NextHops[0] == NextHop. Nil means the
	// route is single-path (NextHop alone describes forwarding).
	NextHops []netip.Addr
}

// CanonHops canonicalizes a next-hop set: invalid members are dropped and
// the rest sorted and deduplicated. The result is nil when no valid hop
// remains.
func CanonHops(hops []netip.Addr) []netip.Addr {
	out := make([]netip.Addr, 0, len(hops))
	for _, h := range hops {
		if h.IsValid() {
			out = append(out, h)
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// WithNextHops returns a copy of r forwarding over the given equal-cost
// set: NextHop becomes the lowest member and NextHops carries the full
// sorted set when it has more than one member (nil otherwise, preserving
// the single-path representation).
func (r Route) WithNextHops(hops ...netip.Addr) Route {
	set := CanonHops(hops)
	switch len(set) {
	case 0:
		r.NextHop, r.NextHops = netip.Addr{}, nil
	case 1:
		r.NextHop, r.NextHops = set[0], nil
	default:
		r.NextHop, r.NextHops = set[0], set
	}
	return r
}

// HopSet returns the route's full next-hop set: NextHops when multipath,
// else the single NextHop, else nil for local routes.
func (r Route) HopSet() []netip.Addr {
	if len(r.NextHops) > 0 {
		return r.NextHops
	}
	if r.NextHop.IsValid() {
		return []netip.Addr{r.NextHop}
	}
	return nil
}

// SameHops reports whether two routes forward over the same next-hop set.
func (r Route) SameHops(o Route) bool {
	a, b := r.HopSet(), o.HopSet()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AdminDistance returns the route's effective administrative distance.
func (r Route) AdminDistance() uint8 {
	return AdminDistance(r.Proto, r.Proto == ProtoBGP && r.PeerType == PeerIBGP)
}

func (r Route) String() string {
	nh := "direct"
	switch {
	case len(r.NextHops) > 1:
		parts := make([]string, len(r.NextHops))
		for i, h := range r.NextHops {
			parts[i] = h.String()
		}
		nh = strings.Join(parts, "|")
	case r.NextHop.IsValid():
		nh = r.NextHop.String()
	}
	return fmt.Sprintf("%s via %s [%s ad=%d metric=%d]", r.Prefix, nh, r.Proto, r.AdminDistance(), r.Metric)
}

// MustPrefix parses a CIDR literal, panicking on error. Test and scenario
// construction helper.
func MustPrefix(s string) netip.Prefix {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p.Masked()
}

// CompareBGP ranks two BGP routes using the canonical decision process and
// returns a negative number when a is preferred, positive when b is
// preferred, and 0 when the process cannot distinguish them (callers break
// the final tie with arrival order or router ID). igpMetric maps a next hop
// to the IGP cost of reaching it; unknown next hops rank worst.
//
// The steps implemented, in order (RFC 4271 §9.1 plus the conventional
// local-pref and eBGP>iBGP steps):
//  1. highest local preference
//  2. shortest AS path
//  3. lowest origin
//  4. lowest MED (only compared between routes from the same neighboring AS,
//     unless quirk AlwaysCompareMED)
//  5. eBGP over iBGP
//  6. lowest IGP metric to next hop
//  7. lowest learned-from router ID
//
// Vendor quirks (§2 of the paper: "differences in BGP path selection rules
// across vendors") are injected via Quirks.
func CompareBGP(a, b Route, igpMetric func(netip.Addr) (uint32, bool), q Quirks) int {
	if d := int64(b.Attrs.EffectiveLocalPref()) - int64(a.Attrs.EffectiveLocalPref()); d != 0 {
		return sign(d)
	}
	if !q.IgnoreASPathLength {
		if d := len(a.Attrs.ASPath) - len(b.Attrs.ASPath); d != 0 {
			return d
		}
	}
	if d := int(a.Attrs.Origin) - int(b.Attrs.Origin); d != 0 {
		return d
	}
	sameNeighborAS := firstAS(a.Attrs.ASPath) == firstAS(b.Attrs.ASPath) && len(a.Attrs.ASPath) > 0
	if q.AlwaysCompareMED || sameNeighborAS {
		if d := int64(a.Attrs.MED) - int64(b.Attrs.MED); d != 0 {
			return sign(d)
		}
	}
	if a.PeerType != b.PeerType {
		if a.PeerType == PeerEBGP {
			return -1
		}
		if b.PeerType == PeerEBGP {
			return 1
		}
	}
	am, aok := igpLookup(igpMetric, a.NextHop)
	bm, bok := igpLookup(igpMetric, b.NextHop)
	if aok != bok {
		if aok {
			return -1
		}
		return 1
	}
	if aok && am != bm {
		return sign(int64(am) - int64(bm))
	}
	if q.PreferOldest {
		// Caller is expected to have pre-sorted by age; report a tie so the
		// existing best is retained.
		return 0
	}
	return compareAddr(a.LearnedFrom, b.LearnedFrom)
}

// Quirks model vendor-specific deviations from the canonical BGP decision
// process. A zero Quirks value is canonical behaviour.
type Quirks struct {
	// AlwaysCompareMED compares MED even across different neighboring ASes
	// (Cisco's "bgp always-compare-med").
	AlwaysCompareMED bool
	// PreferOldest retains the current best on router-ID ties instead of
	// switching to the lower router ID (Cisco default for eBGP paths).
	PreferOldest bool
	// IgnoreASPathLength skips the AS-path-length step entirely (Cisco's
	// "bgp bestpath as-path ignore" hidden command).
	IgnoreASPathLength bool
}

// Named vendor profiles used by experiments. These are caricatures, not
// faithful vendor models: the point (per the paper) is only that *different
// boxes pick different routes from identical inputs*, which is enough to
// make a canonical-model verifier mispredict.
var (
	VendorCanonical = Quirks{}
	VendorA         = Quirks{AlwaysCompareMED: true}
	VendorB         = Quirks{PreferOldest: true}
	VendorC         = Quirks{IgnoreASPathLength: true, AlwaysCompareMED: true}
)

func igpLookup(f func(netip.Addr) (uint32, bool), nh netip.Addr) (uint32, bool) {
	if f == nil || !nh.IsValid() {
		return 0, true // treat as reachable at cost 0 (e.g. directly connected)
	}
	return f(nh)
}

func firstAS(path []uint32) uint32 {
	if len(path) == 0 {
		return 0
	}
	return path[0]
}

func sign(d int64) int {
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	default:
		return 0
	}
}

func compareAddr(a, b netip.Addr) int {
	switch {
	case !a.IsValid() && !b.IsValid():
		return 0
	case !a.IsValid():
		return 1
	case !b.IsValid():
		return -1
	default:
		return a.Compare(b)
	}
}
