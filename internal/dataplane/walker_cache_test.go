package dataplane_test

import (
	"sync"
	"testing"

	. "hbverify/internal/dataplane"
)

// The walker caches what each router knows (interfaces, link states, its
// FIB lookup) and rebuilds a router's entry when the topology's generation
// moves. These tests keep one walker across topology changes, with nothing
// but the generation to tell it.

// TestWalkerCacheSeesLinkFlip: on one long-lived walker, taking down one of
// s's two equal-cost links between two walks turns a delivered walk into a
// partial blackhole, and bringing it back up restores the delivery.
func TestWalkerCacheSeesLinkFlip(t *testing.T) {
	w := diamondWalker(t)
	dst := addr("55.0.0.1")
	if got := w.Forward("s", dst); got.Outcome != Delivered || got.Branches != 1 {
		t.Fatalf("before the flip: %v", got)
	}
	link := w.Topo.LinkBetween("s", "a")
	link.SetUp(false)
	if got := w.Forward("s", dst); got.Outcome != PartialBlackhole {
		t.Fatalf("after s-a went down: %v, want partial-blackhole", got)
	}
	link.SetUp(true)
	if got := w.Forward("s", dst); got.Outcome != Delivered || got.Branches != 1 {
		t.Fatalf("after s-a came back: %v", got)
	}
}

// TestWalkerCacheSeesNewStub: a stub LAN added to s after a walk dropped a
// packet for it delivers that packet on the next walk.
func TestWalkerCacheSeesNewStub(t *testing.T) {
	w := diamondWalker(t)
	dst := addr("66.0.0.1")
	if got := w.Forward("s", dst); got.Outcome != Dropped {
		t.Fatalf("before the stub: %v, want dropped", got)
	}
	if _, err := w.Topo.AddStub("s", "lan", addr("66.0.0.254"), pfx("66.0.0.0/24")); err != nil {
		t.Fatal(err)
	}
	if got := w.Forward("s", dst); got.Outcome != Delivered || got.Egress != "s" {
		t.Fatalf("after the stub: %v, want delivered at s", got)
	}
}

// TestWalkerCacheRacingLinkFlips runs walks on one walker while a link
// flaps (run under -race): every walk sees the link either up or down, and
// once the flapping stops with the link down, the walk says so.
func TestWalkerCacheRacingLinkFlips(t *testing.T) {
	w := diamondWalker(t)
	dst := addr("55.0.0.1")
	w.Forward("s", dst) // fill the cache with the link up
	link := w.Topo.LinkBetween("s", "a")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := w.Forward("s", dst); got.Outcome != Delivered && got.Outcome != PartialBlackhole {
					t.Errorf("walk during flaps: %v", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		link.SetUp(i%2 == 0)
	}
	close(stop)
	wg.Wait()
	if link.Up() {
		t.Fatal("the flapping should end with the link down")
	}
	if got := w.Forward("s", dst); got.Outcome != PartialBlackhole {
		t.Fatalf("after the flaps: %v, want partial-blackhole", got)
	}
}
