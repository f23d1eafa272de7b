package hbverify

import (
	"net/netip"
	"runtime"
	"testing"

	"hbverify/internal/dist"
	"hbverify/internal/route"
	"hbverify/internal/verify"
)

// TestFleetRoundKeepsMidRoundDirt is the regression for the lost update in
// the fleet rounds' dirty-set handling: a router dirtied after a round has
// read the dirty set but before the round ends must still be synced by the
// next round. Each iteration offers a static on r1 (dirtying it), starts a
// round, and withdraws the static as soon as the round's view delta is on
// the wire — i.e. after the round took its dirty set. The following round
// must ship r1's withdrawal to the fleet and agree with the central walker;
// a round that wipes the dirty set when it finishes instead re-answers from
// r1's stale view. Run under -race in CI.
func TestFleetRoundKeepsMidRoundDirt(t *testing.T) {
	rounds := map[string]func(*Pipeline, []verify.Policy) (dist.Stats, error){
		"VerifyDistributed": (*Pipeline).VerifyDistributed,
		"VerifyLocalChecks": (*Pipeline).VerifyLocalChecks,
	}
	for name, round := range rounds {
		t.Run(name, func(t *testing.T) {
			pn, p := startPaper(t)
			defer p.Close()
			q := netip.MustParsePrefix("198.51.100.0/24")
			// With the static, r1 delivers q itself; without it, r1 does not.
			static := route.Route{Prefix: q, Proto: route.ProtoStatic, NextHop: pn.Router("r1").Topo.Loopback}
			policies := []verify.Policy{
				{Kind: verify.Egress, Prefix: q, Expect: "r1", Sources: []string{"r1"}},
				{Kind: verify.NoLoop, Prefix: pn.P},
			}
			r1 := pn.Router("r1").FIB
			if _, err := round(p, policies); err != nil { // builds the fleet
				t.Fatal(err)
			}
			if central := p.Verify(policies); central.OK() {
				t.Fatal("test premise: without the static, q must not egress at r1")
			}
			coord := p.distCoord
			for i := 0; i < 25; i++ {
				r1.Offer(static)
				base, _, _, _ := coord.Wire()
				done := make(chan error, 1)
				go func() {
					_, err := round(p, policies)
					done <- err
				}()
				for {
					if f, _, _, _ := coord.Wire(); f > base {
						break
					}
					runtime.Gosched()
				}
				r1.Withdraw(route.ProtoStatic, q)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				stats, err := round(p, policies)
				if err != nil {
					t.Fatal(err)
				}
				central := p.Verify(policies)
				if len(stats.Report.Violations) != len(central.Violations) {
					t.Fatalf("iteration %d: fleet reports %d violations after a mid-round withdraw, central %d — r1's update was lost",
						i, len(stats.Report.Violations), len(central.Violations))
				}
			}
		})
	}
}
