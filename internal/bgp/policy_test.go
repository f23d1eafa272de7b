package bgp

import (
	"net/netip"
	"testing"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/config"
	"hbverify/internal/fib"
	"hbverify/internal/route"
)

// policyNet wires a single receiver with one eBGP provider whose export
// policy can be configured.
func policyNet(t *testing.T, exportTerms []config.PolicyTerm, importTerms []config.PolicyTerm) (*testNet, *Speaker, *Speaker) {
	t.Helper()
	n := newTestNet()
	policies := map[string]*config.Policy{}
	if exportTerms != nil {
		policies["exp"] = &config.Policy{Name: "exp", Terms: exportTerms}
	}
	if importTerms != nil {
		policies["imp"] = &config.Policy{Name: "imp", Terms: importTerms}
	}
	lookup := func(name string) *config.Policy { return policies[name] }

	recvCfg := &config.BGPConfig{ASN: 65000, RouterID: addr("1.1.1.1")}
	rec := capture.NewRecorder(n.log, "recv", n.sched, nil)
	ft := fib.NewTable(rec)
	receiver := New("recv", addr("1.1.1.1"), recvCfg, lookup, rec, n.sched, ft, n)
	n.speakers[addr("1.1.1.1")] = receiver
	n.fibs["recv"] = ft

	provCfg := &config.BGPConfig{
		ASN: 900, RouterID: addr("9.9.9.9"),
		Networks: []netip.Prefix{prefixP},
	}
	prec := capture.NewRecorder(n.log, "prov", n.sched, nil)
	pft := fib.NewTable(prec)
	provider := New("prov", addr("9.9.9.9"), provCfg, lookup, prec, n.sched, pft, n)
	n.speakers[addr("9.9.9.9")] = provider

	sa := receiver.AddSession(Session{PeerName: "prov", PeerAddr: addr("9.9.9.9"),
		LocalAddr: addr("1.1.1.1"), PeerAS: 900, Type: route.PeerEBGP})
	sb := provider.AddSession(Session{PeerName: "recv", PeerAddr: addr("1.1.1.1"),
		LocalAddr: addr("9.9.9.9"), PeerAS: 65000, Type: route.PeerEBGP})
	if importTerms != nil {
		sa.ImportPolicy = "imp"
	}
	if exportTerms != nil {
		sb.ExportPolicy = "exp"
	}
	receiver.PeerUp(addr("9.9.9.9"))
	provider.PeerUp(addr("1.1.1.1"))
	return n, receiver, provider
}

func TestExportPolicySetsMEDOnLocalRoute(t *testing.T) {
	n, receiver, provider := policyNet(t, []config.PolicyTerm{
		{Match: config.MatchAny, Action: config.ActionSetMED, Value: 42},
	}, nil)
	provider.Start()
	n.run(t)
	got := receiver.AdjIn(addr("9.9.9.9"))
	if len(got) != 1 || got[0].Attrs.MED != 42 {
		t.Fatalf("adj-in = %v", got)
	}
}

func TestExportPolicyPrepend(t *testing.T) {
	n, receiver, provider := policyNet(t, []config.PolicyTerm{
		{Match: config.MatchAny, Action: config.ActionPrepend, Value: 2},
	}, nil)
	provider.Start()
	n.run(t)
	got := receiver.AdjIn(addr("9.9.9.9"))
	// Path: [900(export prepend-as), 900, 900] - prepend adds 2 copies of
	// the provider ASN before the standard eBGP prepend.
	if len(got) != 1 || len(got[0].Attrs.ASPath) != 3 {
		t.Fatalf("adj-in path = %v", got)
	}
	for _, as := range got[0].Attrs.ASPath {
		if as != 900 {
			t.Fatalf("path = %v", got[0].Attrs.ASPath)
		}
	}
	// The longer path still installs (only candidate) but ranks worse.
	if _, ok := receiver.locRIB[prefixP]; !ok {
		t.Fatal("route not installed")
	}
}

func TestImportPolicySetsLocalPref(t *testing.T) {
	n, receiver, provider := policyNet(t, nil, []config.PolicyTerm{
		{Match: config.MatchPrefixOrLonger, Prefix: prefixP, Action: config.ActionSetLocalPref, Value: 250},
	})
	provider.Start()
	n.run(t)
	best, ok := receiver.locRIB[prefixP]
	if !ok || best.Attrs.LocalPref != 250 {
		t.Fatalf("best = %+v %v", best, ok)
	}
}

func TestImportCommunityTagThenMatch(t *testing.T) {
	// Export adds a community; import denies routes carrying it.
	n, receiver, provider := policyNet(t, []config.PolicyTerm{
		{Match: config.MatchAny, Action: config.ActionAddCommunity, Value: 666},
	}, []config.PolicyTerm{
		{Match: config.MatchCommunity, Community: 666, Action: config.ActionDeny},
	})
	provider.Start()
	n.run(t)
	if _, ok := receiver.locRIB[prefixP]; ok {
		t.Fatal("community-tagged route survived the import deny")
	}
	// The raw route is still in Adj-RIB-In (soft reconfiguration data).
	if got := receiver.AdjIn(addr("9.9.9.9")); len(got) != 1 {
		t.Fatalf("adj-in = %v", got)
	}
}

func TestPolicyChangeThenSoftReconfigRecovers(t *testing.T) {
	n, receiver, provider := policyNet(t, nil, []config.PolicyTerm{
		{Match: config.MatchAny, Action: config.ActionDeny},
	})
	provider.Start()
	n.run(t)
	if _, ok := receiver.locRIB[prefixP]; ok {
		t.Fatal("denied route installed")
	}
	// Operator removes the deny; soft reconfiguration re-evaluates the
	// retained Adj-RIB-In without needing the provider to re-advertise.
	receiver.Session(addr("9.9.9.9")).ImportPolicy = ""
	n.sched.After(time.Millisecond, func() { receiver.SoftReconfig() })
	n.run(t)
	if _, ok := receiver.locRIB[prefixP]; !ok {
		t.Fatal("soft reconfiguration did not resurrect the route")
	}
}

func TestMEDCarriedOverIBGPButNotEBGP(t *testing.T) {
	// provider --eBGP(with MED)--> border --iBGP--> client --eBGP--> far
	n := newTestNet()
	policies := map[string]*config.Policy{
		"med": {Name: "med", Terms: []config.PolicyTerm{
			{Match: config.MatchAny, Action: config.ActionSetMED, Value: 77},
		}},
	}
	lookup := func(name string) *config.Policy { return policies[name] }
	mk := func(name, lb string, asn uint32, networks []netip.Prefix) *Speaker {
		cfg := &config.BGPConfig{ASN: asn, RouterID: addr(lb), Networks: networks}
		rec := capture.NewRecorder(n.log, name, n.sched, nil)
		ft := fib.NewTable(rec)
		sp := New(name, addr(lb), cfg, lookup, rec, n.sched, ft, n)
		n.speakers[addr(lb)] = sp
		n.igp[addr(lb)] = 1
		return sp
	}
	provider := mk("prov", "9.9.9.9", 900, []netip.Prefix{prefixP})
	border := mk("border", "1.1.1.1", 65000, nil)
	client := mk("client", "2.2.2.2", 65000, nil)
	far := mk("far", "8.8.8.8", 800, nil)
	n.connect(border, provider, route.PeerEBGP, func(_, sb *Session) { sb.ExportPolicy = "med" })
	n.connect(border, client, route.PeerIBGP, nil)
	n.connect(client, far, route.PeerEBGP, nil)
	provider.Start()
	n.run(t)
	// iBGP hop keeps the MED.
	got := client.AdjIn(addr("1.1.1.1"))
	if len(got) != 1 || got[0].Attrs.MED != 77 {
		t.Fatalf("iBGP adj-in = %v", got)
	}
	// eBGP re-export drops it.
	got = far.AdjIn(addr("2.2.2.2"))
	if len(got) != 1 || got[0].Attrs.MED != 0 {
		t.Fatalf("eBGP adj-in = %v", got)
	}
}
