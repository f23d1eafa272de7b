// Package config models router configurations and a versioned configuration
// store. Versioning is what makes the paper's "revert the root-cause event"
// repair (§6) implementable: when the happens-before graph traces a policy
// violation back to a configuration change, the repair engine asks the store
// for the previous version and reapplies it.
package config

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"hbverify/internal/route"
)

// MatchKind selects what a policy term matches on.
type MatchKind uint8

// Policy match kinds.
const (
	MatchAny MatchKind = iota
	MatchPrefix
	MatchPrefixOrLonger
	MatchCommunity
)

// Action is what a matching policy term does.
type Action uint8

// Policy actions.
const (
	ActionPermit Action = iota
	ActionDeny
	ActionSetLocalPref
	ActionSetMED
	ActionAddCommunity
	ActionPrepend
)

// PolicyTerm is one clause of a route policy, evaluated in order. The first
// matching term's action applies; a terminating action (permit/deny) stops
// evaluation, attribute-setting actions continue.
type PolicyTerm struct {
	Match     MatchKind
	Prefix    netip.Prefix
	Community uint32
	Action    Action
	Value     uint32
}

func (t PolicyTerm) matches(pfx netip.Prefix, attrs route.BGPAttrs) bool {
	switch t.Match {
	case MatchAny:
		return true
	case MatchPrefix:
		return pfx == t.Prefix.Masked()
	case MatchPrefixOrLonger:
		return t.Prefix.Masked().Contains(pfx.Addr()) && pfx.Bits() >= t.Prefix.Bits()
	case MatchCommunity:
		for _, c := range attrs.Communities {
			if c == t.Community {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Policy is an ordered list of terms with an implicit trailing permit (we
// default-permit so simple scenarios need no policy at all; tests cover the
// explicit-deny path).
type Policy struct {
	Name  string
	Terms []PolicyTerm
}

// Apply evaluates the policy against a route's prefix and attributes,
// returning the rewritten attributes and whether the route is accepted.
func (p *Policy) Apply(pfx netip.Prefix, attrs route.BGPAttrs, localAS uint32) (route.BGPAttrs, bool) {
	if p == nil {
		return attrs, true
	}
	out := attrs.Clone()
	for _, t := range p.Terms {
		if !t.matches(pfx, out) {
			continue
		}
		switch t.Action {
		case ActionPermit:
			return out, true
		case ActionDeny:
			return out, false
		case ActionSetLocalPref:
			out.LocalPref = t.Value
		case ActionSetMED:
			out.MED = t.Value
		case ActionAddCommunity:
			out.Communities = append(out.Communities, t.Value)
		case ActionPrepend:
			for i := uint32(0); i < t.Value; i++ {
				out.ASPath = append([]uint32{localAS}, out.ASPath...)
			}
		}
	}
	return out, true
}

// Neighbor configures one BGP session.
type Neighbor struct {
	Addr     netip.Addr
	RemoteAS uint32
	// LocalPref, when nonzero, is applied to routes received from this
	// neighbor (the common "set local-preference on ingress" pattern used
	// throughout the paper's examples).
	LocalPref uint32
	// ImportPolicy/ExportPolicy name policies in the router config.
	ImportPolicy string
	ExportPolicy string
	// AddPath enables BGP Add-Path on this session (§8: determinism).
	AddPath bool
	// RRClient marks the neighbor as a route-reflection client of this
	// router (RFC 4456), replacing the iBGP full-mesh requirement.
	RRClient bool
}

// BGPConfig is the router's BGP process configuration.
type BGPConfig struct {
	ASN       uint32
	RouterID  netip.Addr
	Neighbors []Neighbor
	// Networks are prefixes originated by this router.
	Networks []netip.Prefix
	// Quirks select the vendor decision-process profile.
	Quirks route.Quirks
}

// Neighbor returns the neighbor config for addr, or nil.
func (b *BGPConfig) Neighbor(addr netip.Addr) *Neighbor {
	for i := range b.Neighbors {
		if b.Neighbors[i].Addr == addr {
			return &b.Neighbors[i]
		}
	}
	return nil
}

// OSPFConfig enables OSPF on a set of interfaces.
type OSPFConfig struct {
	Enabled    bool
	Interfaces []string // empty means all interfaces
	// RedistributeConnected injects connected subnets of non-OSPF
	// interfaces as external LSAs.
	RedistributeConnected bool
}

// RIPConfig enables RIP.
type RIPConfig struct {
	Enabled    bool
	Interfaces []string
}

// EIGRPConfig enables EIGRP.
type EIGRPConfig struct {
	Enabled    bool
	ASN        uint32
	Interfaces []string
}

// StaticRoute is a configured static route. NextHops optionally lists an
// equal-cost set of next hops (an ECMP static); when present it supersedes
// NextHop, which is kept for single-path statics and older configs.
type StaticRoute struct {
	Prefix   netip.Prefix
	NextHop  netip.Addr
	NextHops []netip.Addr
}

// Router is a complete router configuration. Values are plain data so the
// whole struct can be deep-copied for versioning.
type Router struct {
	Name     string
	BGP      *BGPConfig
	OSPF     OSPFConfig
	RIP      RIPConfig
	EIGRP    EIGRPConfig
	Statics  []StaticRoute
	Policies map[string]*Policy
}

// Policy returns the named policy or nil.
func (r *Router) Policy(name string) *Policy {
	if name == "" || r.Policies == nil {
		return nil
	}
	return r.Policies[name]
}

// Clone deep-copies the configuration.
func (r *Router) Clone() *Router {
	if r == nil {
		return nil
	}
	out := &Router{Name: r.Name, OSPF: r.OSPF, RIP: r.RIP, EIGRP: r.EIGRP}
	out.OSPF.Interfaces = append([]string(nil), r.OSPF.Interfaces...)
	out.RIP.Interfaces = append([]string(nil), r.RIP.Interfaces...)
	out.EIGRP.Interfaces = append([]string(nil), r.EIGRP.Interfaces...)
	out.Statics = append([]StaticRoute(nil), r.Statics...)
	for i := range out.Statics {
		out.Statics[i].NextHops = append([]netip.Addr(nil), out.Statics[i].NextHops...)
	}
	if r.BGP != nil {
		b := *r.BGP
		b.Neighbors = append([]Neighbor(nil), r.BGP.Neighbors...)
		b.Networks = append([]netip.Prefix(nil), r.BGP.Networks...)
		out.BGP = &b
	}
	if r.Policies != nil {
		out.Policies = make(map[string]*Policy, len(r.Policies))
		for k, v := range r.Policies {
			p := &Policy{Name: v.Name, Terms: append([]PolicyTerm(nil), v.Terms...)}
			out.Policies[k] = p
		}
	}
	return out
}

// Summary renders a one-line digest of the config, used in capture events
// describing configuration changes.
func (r *Router) Summary() string {
	var parts []string
	if r.BGP != nil {
		lps := make([]string, 0, len(r.BGP.Neighbors))
		for _, n := range r.BGP.Neighbors {
			if n.LocalPref != 0 {
				lps = append(lps, fmt.Sprintf("%v:lp=%d", n.Addr, n.LocalPref))
			}
		}
		sort.Strings(lps)
		parts = append(parts, fmt.Sprintf("bgp as%d nbrs=%d %s", r.BGP.ASN, len(r.BGP.Neighbors), strings.Join(lps, " ")))
	}
	if r.OSPF.Enabled {
		parts = append(parts, "ospf")
	}
	if r.RIP.Enabled {
		parts = append(parts, "rip")
	}
	if r.EIGRP.Enabled {
		parts = append(parts, fmt.Sprintf("eigrp as%d", r.EIGRP.ASN))
	}
	if len(r.Statics) > 0 {
		parts = append(parts, fmt.Sprintf("statics=%d", len(r.Statics)))
	}
	return strings.TrimSpace(strings.Join(parts, "; "))
}

// Version is a stored configuration snapshot.
type Version struct {
	Num     int
	Comment string
	Config  *Router
}

// Store keeps the configuration history for every router. Version numbers
// are per router and start at 1.
type Store struct {
	history map[string][]Version
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{history: map[string][]Version{}} }

// Commit snapshots cfg as the next version for its router and returns the
// version number. The stored copy is deep, so later mutations to cfg do not
// alter history.
func (s *Store) Commit(cfg *Router, comment string) int {
	h := s.history[cfg.Name]
	v := Version{Num: len(h) + 1, Comment: comment, Config: cfg.Clone()}
	s.history[cfg.Name] = append(h, v)
	return v.Num
}

// Get returns a specific version.
func (s *Store) Get(name string, num int) (Version, bool) {
	h := s.history[name]
	if num < 1 || num > len(h) {
		return Version{}, false
	}
	return h[num-1], true
}

// Rollback commits a copy of version num as the new head and returns the
// version it committed. This mirrors how operators roll back: the old
// content becomes a new version rather than rewriting history.
func (s *Store) Rollback(name string, num int) (Version, error) {
	v, ok := s.Get(name, num)
	if !ok {
		return Version{}, fmt.Errorf("config: no version %d for %q", num, name)
	}
	head, _ := s.Get(name, s.Commit(v.Config, fmt.Sprintf("rollback to v%d", num)))
	return head, nil
}

// History returns all versions for a router, oldest first.
func (s *Store) History(name string) []Version {
	return append([]Version(nil), s.history[name]...)
}
