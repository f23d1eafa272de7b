package dist

import (
	"sync"
	"testing"
	"time"

	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/verify"
)

// TestConcurrentVerifyDuringShutdown hammers the fleet with batch
// submissions while the fleet tears down underneath it. Every call must
// return (success or reported error) within walkTimeout/2 of Close: a walk
// in flight fails when the fleet closes, not at its deadline. No hangs, no
// panics, no races.
func TestConcurrentVerifyDuringShutdown(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	policies := []verify.Policy{
		{Kind: verify.NoLoop, Prefix: pn.P},
		{Kind: verify.Reachable, Prefix: pfx("1.1.1.1/32")},
	}
	sources := []string{"r1", "r2", "r3"}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once teardown starts; the only failure
				// mode is not returning.
				_, _ = f.Verify(verify.NewChecker(nil, sources), policies)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	bound := time.After(walkTimeout / 2)
	f.Close()
	close(stop)

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-bound:
		t.Fatalf("verify calls still running %v after Close began", walkTimeout/2)
	}
}

// TestSetWalkBatchesDuringShutdown is the multipath variant of the
// shutdown hammer: the verified prefix resolves through an ECMP static on
// r1 whose membership a mutator churns (2 members <-> 1 <-> withdrawn), so
// the distributed walk batches carry branching set walks while the fleet
// tears down. Every call must return within walkTimeout/2 of Close; no
// hangs, no panics, no races.
func TestSetWalkBatchesDuringShutdown(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	ecmpPrefix := pfx("77.0.0.0/24")
	r1 := pn.Router("r1")
	wide := route.Route{Prefix: ecmpPrefix, Proto: route.ProtoStatic}.
		WithNextHops(addr("10.0.1.2"), addr("10.0.2.2"))
	narrow := route.Route{Prefix: ecmpPrefix, Proto: route.ProtoStatic}.
		WithNextHops(addr("10.0.1.2"))
	r1.FIB.Offer(wide)

	f := startFleet(t, pn.Network)
	policies := []verify.Policy{
		{Kind: verify.NoLoop, Prefix: ecmpPrefix},
		{Kind: verify.NoLoop, Prefix: pn.P},
	}
	sources := []string{"r1", "r2", "r3"}

	stop := make(chan struct{})
	var mutWg sync.WaitGroup
	mutWg.Add(1)
	go func() {
		defer mutWg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				r1.FIB.Offer(wide)
			case 1:
				r1.FIB.Offer(narrow)
			case 2:
				r1.FIB.Withdraw(route.ProtoStatic, ecmpPrefix)
			}
			i++
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = f.Verify(verify.NewChecker(nil, sources), policies)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	bound := time.After(walkTimeout / 2)
	f.Close()
	close(stop)
	mutWg.Wait()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-bound:
		t.Fatalf("set-walk verify calls still running %v after Close began", walkTimeout/2)
	}
}

// TestConcurrentVerifyCalls checks correlation-ID routing: overlapping
// rounds on one fleet must each get their own complete result set.
func TestConcurrentVerifyCalls(t *testing.T) {
	pn := startPaper(t, network.DefaultPaperOpts())
	f := startFleet(t, pn.Network)
	policies := []verify.Policy{
		{Kind: verify.Egress, Prefix: pn.P, Expect: "e2"},
		{Kind: verify.NoLoop, Prefix: pfx("1.1.1.1/32")},
	}
	sources := []string{"r1", "r2", "r3"}

	const rounds = 8
	errs := make(chan error, rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, err := f.Verify(verify.NewChecker(nil, sources), policies)
			if err == nil && stats.Report.Checked != 6 {
				err = errStats{stats.Report.Checked}
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

type errStats struct{ checked int }

func (e errStats) Error() string { return "wrong check count" }
