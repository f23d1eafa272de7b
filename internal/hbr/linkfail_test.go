package hbr

import (
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/network"
)

// TestLinkFailureRootCause checks the hardware-status input class (§4.1):
// a FIB removal triggered by a link failure must trace back to the
// link-down event through the inferred graph.
func TestLinkFailureRootCause(t *testing.T) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	mark := pn.Log.Len()
	downIOs, err := pn.SetLinkUp("r2", "e2", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	ios := pn.Log.Snapshot()[mark:]
	g := Rules{}.Infer(capture.StripOracle(ios))

	// r3's FIB change for P (switch to r1) after the failure.
	var r3fib capture.IO
	for _, io := range ios {
		if io.Router == "r3" && io.Type == capture.FIBInstall && io.Prefix == pn.P {
			r3fib = io
		}
	}
	if r3fib.ID == 0 {
		t.Fatal("r3 never switched after the failure")
	}
	roots := g.RootCauses(r3fib.ID)
	if len(roots) == 0 {
		t.Fatal("no roots")
	}
	wantIDs := map[uint64]bool{}
	for _, io := range downIOs {
		wantIDs[io.ID] = true
	}
	found := false
	for _, r := range roots {
		if r.Type == capture.LinkDown && wantIDs[r.ID] {
			found = true
		}
	}
	if !found {
		t.Fatalf("roots %v do not include the link-down inputs %v", roots, downIOs)
	}
}

// TestWithdrawCausalityAcrossRouters: after the failure, r3's recv-withdraw
// must be cross-linked to r2's send-withdraw.
func TestWithdrawCausalityAcrossRouters(t *testing.T) {
	pn, err := network.BuildPaper(1, network.DefaultPaperOpts())
	if err != nil {
		t.Fatal(err)
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	mark := pn.Log.Len()
	if _, err := pn.SetLinkUp("r2", "e2", false); err != nil {
		t.Fatal(err)
	}
	if err := pn.Run(); err != nil {
		t.Fatal(err)
	}
	ios := pn.Log.Snapshot()[mark:]
	g := Rules{}.Infer(capture.StripOracle(ios))
	var recv capture.IO
	for _, io := range ios {
		if io.Router == "r3" && io.Type == capture.RecvWithdraw && io.Peer == "r2" && io.Prefix == pn.P {
			recv = io
		}
	}
	if recv.ID == 0 {
		t.Fatal("r3 never received the withdraw")
	}
	parents := g.Parents(recv.ID)
	if len(parents) == 0 {
		t.Fatal("withdraw recv has no inferred parent")
	}
	p, _ := g.Node(parents[0])
	if p.Router != "r2" || p.Type != capture.SendWithdraw {
		t.Fatalf("parent = %v, want r2's send-withdraw", p)
	}
}
