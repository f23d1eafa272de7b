package config

import (
	"net/netip"
	"testing"

	"hbverify/internal/route"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s).Masked() }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func TestPolicyNilPermitsAll(t *testing.T) {
	var p *Policy
	attrs := route.BGPAttrs{LocalPref: 55}
	got, ok := p.Apply(pfx("10.0.0.0/8"), attrs, 65000)
	if !ok || got.LocalPref != 55 {
		t.Fatalf("nil policy rewrote: %+v %v", got, ok)
	}
}

func TestPolicyDeny(t *testing.T) {
	p := &Policy{Terms: []PolicyTerm{
		{Match: MatchPrefix, Prefix: pfx("10.0.0.0/8"), Action: ActionDeny},
		{Match: MatchAny, Action: ActionPermit},
	}}
	if _, ok := p.Apply(pfx("10.0.0.0/8"), route.BGPAttrs{}, 1); ok {
		t.Fatal("deny term did not reject")
	}
	if _, ok := p.Apply(pfx("11.0.0.0/8"), route.BGPAttrs{}, 1); !ok {
		t.Fatal("non-matching prefix rejected")
	}
}

func TestPolicyPrefixOrLonger(t *testing.T) {
	p := &Policy{Terms: []PolicyTerm{
		{Match: MatchPrefixOrLonger, Prefix: pfx("10.0.0.0/8"), Action: ActionDeny},
	}}
	if _, ok := p.Apply(pfx("10.1.0.0/16"), route.BGPAttrs{}, 1); ok {
		t.Fatal("longer prefix should match")
	}
	if _, ok := p.Apply(pfx("10.0.0.0/7"), route.BGPAttrs{}, 1); !ok {
		t.Fatal("shorter prefix should not match")
	}
}

func TestPolicySetAttributesContinues(t *testing.T) {
	p := &Policy{Terms: []PolicyTerm{
		{Match: MatchAny, Action: ActionSetLocalPref, Value: 300},
		{Match: MatchAny, Action: ActionSetMED, Value: 42},
		{Match: MatchAny, Action: ActionAddCommunity, Value: 777},
	}}
	got, ok := p.Apply(pfx("10.0.0.0/8"), route.BGPAttrs{}, 1)
	if !ok || got.LocalPref != 300 || got.MED != 42 {
		t.Fatalf("attrs = %+v ok=%v", got, ok)
	}
	if len(got.Communities) != 1 || got.Communities[0] != 777 {
		t.Fatalf("communities = %v", got.Communities)
	}
}

func TestPolicyPrepend(t *testing.T) {
	p := &Policy{Terms: []PolicyTerm{{Match: MatchAny, Action: ActionPrepend, Value: 2}}}
	got, _ := p.Apply(pfx("10.0.0.0/8"), route.BGPAttrs{ASPath: []uint32{100}}, 65000)
	want := []uint32{65000, 65000, 100}
	if len(got.ASPath) != 3 {
		t.Fatalf("path = %v", got.ASPath)
	}
	for i := range want {
		if got.ASPath[i] != want[i] {
			t.Fatalf("path = %v want %v", got.ASPath, want)
		}
	}
}

func TestPolicyCommunityMatch(t *testing.T) {
	p := &Policy{Terms: []PolicyTerm{
		{Match: MatchCommunity, Community: 666, Action: ActionDeny},
	}}
	if _, ok := p.Apply(pfx("10.0.0.0/8"), route.BGPAttrs{Communities: []uint32{666}}, 1); ok {
		t.Fatal("community deny failed")
	}
	if _, ok := p.Apply(pfx("10.0.0.0/8"), route.BGPAttrs{Communities: []uint32{1}}, 1); !ok {
		t.Fatal("wrong community matched")
	}
}

func TestPolicyDoesNotMutateInput(t *testing.T) {
	p := &Policy{Terms: []PolicyTerm{{Match: MatchAny, Action: ActionPrepend, Value: 1}}}
	in := route.BGPAttrs{ASPath: []uint32{9, 9}}
	_, _ = p.Apply(pfx("10.0.0.0/8"), in, 5)
	if len(in.ASPath) != 2 || in.ASPath[0] != 9 {
		t.Fatalf("input mutated: %v", in.ASPath)
	}
}

func newRouterCfg(name string) *Router {
	return &Router{
		Name: name,
		BGP: &BGPConfig{
			ASN:      65000,
			RouterID: addr("1.1.1.1"),
			Neighbors: []Neighbor{
				{Addr: addr("10.0.0.2"), RemoteAS: 65001, LocalPref: 20},
			},
			Networks: []netip.Prefix{pfx("172.16.0.0/24")},
		},
		OSPF:    OSPFConfig{Enabled: true, Interfaces: []string{"eth0"}},
		Statics: []StaticRoute{{Prefix: pfx("0.0.0.0/0"), NextHop: addr("10.0.0.2")}},
		Policies: map[string]*Policy{
			"in": {Name: "in", Terms: []PolicyTerm{{Match: MatchAny, Action: ActionPermit}}},
		},
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := newRouterCfg("r1")
	c := orig.Clone()
	c.BGP.Neighbors[0].LocalPref = 10
	c.BGP.Networks[0] = pfx("192.0.2.0/24")
	c.OSPF.Interfaces[0] = "ethX"
	c.Statics[0].NextHop = addr("9.9.9.9")
	c.Policies["in"].Terms[0].Action = ActionDeny
	if orig.BGP.Neighbors[0].LocalPref != 20 ||
		orig.BGP.Networks[0] != pfx("172.16.0.0/24") ||
		orig.OSPF.Interfaces[0] != "eth0" ||
		orig.Statics[0].NextHop != addr("10.0.0.2") ||
		orig.Policies["in"].Terms[0].Action != ActionPermit {
		t.Fatal("Clone aliased state")
	}
	var nilCfg *Router
	if nilCfg.Clone() != nil {
		t.Fatal("nil clone")
	}
}

func TestNeighborLookup(t *testing.T) {
	cfg := newRouterCfg("r1")
	if cfg.BGP.Neighbor(addr("10.0.0.2")) == nil {
		t.Fatal("neighbor missing")
	}
	if cfg.BGP.Neighbor(addr("10.0.0.3")) != nil {
		t.Fatal("phantom neighbor")
	}
}

func TestPolicyAccessor(t *testing.T) {
	cfg := newRouterCfg("r1")
	if cfg.Policy("in") == nil || cfg.Policy("") != nil || cfg.Policy("zzz") != nil {
		t.Fatal("Policy accessor wrong")
	}
	empty := &Router{Name: "x"}
	if empty.Policy("in") != nil {
		t.Fatal("nil map should return nil")
	}
}

func TestSummaryMentionsComponents(t *testing.T) {
	cfg := newRouterCfg("r1")
	cfg.RIP.Enabled = true
	cfg.EIGRP = EIGRPConfig{Enabled: true, ASN: 7}
	s := cfg.Summary()
	for _, want := range []string{"bgp as65000", "lp=20", "ospf", "rip", "eigrp as7", "statics=1"} {
		if !contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestStoreCommitAndHistory(t *testing.T) {
	st := NewStore()
	cfg := newRouterCfg("r1")
	if v := st.Commit(cfg, "initial"); v != 1 {
		t.Fatalf("first version = %d", v)
	}
	cfg.BGP.Neighbors[0].LocalPref = 10
	if v := st.Commit(cfg, "lower lp"); v != 2 {
		t.Fatalf("second version = %d", v)
	}
	v1, ok := st.Get("r1", 1)
	if !ok || v1.Config.BGP.Neighbors[0].LocalPref != 20 {
		t.Fatal("history mutated by later edits")
	}
	head, ok := st.Get("r1", 2)
	if !ok || head.Num != 2 || head.Config.BGP.Neighbors[0].LocalPref != 10 {
		t.Fatalf("head = %+v", head)
	}
	if _, ok := st.Get("ghost", 1); ok {
		t.Fatal("ghost router has a version")
	}
	if _, ok := st.Get("r1", 0); ok {
		t.Fatal("version 0 exists")
	}
	if _, ok := st.Get("r1", 3); ok {
		t.Fatal("version 3 exists")
	}
	if h := st.History("r1"); len(h) != 2 || h[0].Comment != "initial" {
		t.Fatalf("history = %+v", h)
	}
}

func TestStoreRollback(t *testing.T) {
	st := NewStore()
	cfg := newRouterCfg("r1")
	st.Commit(cfg, "v1")
	cfg.BGP.Neighbors[0].LocalPref = 10
	st.Commit(cfg, "v2 bad")
	head, err := st.Rollback("r1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if head.Num != 3 || head.Config.BGP.Neighbors[0].LocalPref != 20 {
		t.Fatalf("rollback head = %+v", head)
	}
	if _, err := st.Rollback("r1", 99); err == nil {
		t.Fatal("rollback to missing version succeeded")
	}
	if _, err := st.Rollback("ghost", 1); err == nil {
		t.Fatal("rollback of unknown router succeeded")
	}
}
