package eqclass

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
	"hbverify/internal/trie"
)

// seedFrom registers every router's FIB with the classifier.
func seedFrom(inc *Incremental, fibs map[string]*trie.Trie[fib.Entry]) {
	for r, table := range fibs {
		inc.Seed(r, table)
	}
}

// mutate applies one change to both the plain FIBs (the full-path
// ground truth) and the classifier (the delta path under test), keeping
// the two views identical.
func mutate(inc *Incremental, fibs map[string]*trie.Trie[fib.Entry], router string, e fib.Entry, install bool) {
	p := e.Prefix.Masked()
	if install {
		_ = fibs[router].Insert(p, e)
	} else {
		fibs[router].Delete(p)
	}
	inc.Note(router, fib.Update{Entry: e, Install: install})
}

// requireParity asserts the incremental classification equals a
// from-scratch Compute over the same FIBs.
func requireParity(t *testing.T, inc *Incremental, fibs map[string]*trie.Trie[fib.Entry], step string) {
	t.Helper()
	got := inc.Classes()
	want := Compute(fibs, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental diverges from Compute:\n got %d classes %v\nwant %d classes %v",
			step, len(got), got, len(want), want)
	}
}

func entry(p string, nh string) fib.Entry {
	e := fib.Entry{Prefix: netip.MustParsePrefix(p).Masked()}
	if nh != "" {
		e.NextHop = netip.MustParseAddr(nh)
	}
	return e
}

func TestIncrementalSeedParity(t *testing.T) {
	fibs, _ := syntheticFIBs([]string{"r1", "r2", "r3"}, 1000, 6)
	inc := NewIncremental(nil)
	seedFrom(inc, fibs)
	requireParity(t, inc, fibs, "after seed")
	if inc.Len() != 6 {
		t.Fatalf("classes = %d, want 6", inc.Len())
	}
}

func TestIncrementalChurnParity(t *testing.T) {
	fibs, prefixes := syntheticFIBs([]string{"r1", "r2", "r3"}, 512, 4)
	inc := NewIncremental(nil)
	seedFrom(inc, fibs)
	requireParity(t, inc, fibs, "seed")

	// Single-prefix next-hop change.
	p0 := prefixes[0]
	mutate(inc, fibs, "r1", fib.Entry{Prefix: p0, NextHop: netip.MustParseAddr("203.0.113.9")}, true)
	requireParity(t, inc, fibs, "nexthop change")

	// Remove a prefix from one router (still in the universe via r2/r3).
	p1 := prefixes[1]
	mutate(inc, fibs, "r1", fib.Entry{Prefix: p1}, false)
	requireParity(t, inc, fibs, "partial removal")

	// Remove it everywhere: it must leave the universe and its class. Flush
	// between the two removals so the final withdrawal arrives in a flush
	// of its own (refcount 1 -> 0, no other update touching the prefix) —
	// batching both removals together would mask a miss on that path.
	mutate(inc, fibs, "r2", fib.Entry{Prefix: p1}, false)
	requireParity(t, inc, fibs, "second removal")
	mutate(inc, fibs, "r3", fib.Entry{Prefix: p1}, false)
	requireParity(t, inc, fibs, "universe removal")

	// Covering route: a /16 over many existing /24s changes no /24's class
	// (they still LPM to themselves) but joins the universe itself.
	mutate(inc, fibs, "r2", entry("10.0.0.0/16", "198.51.100.1"), true)
	requireParity(t, inc, fibs, "covering insert")

	// More-specific under the /16: the /16's representative (10.0.0.1)
	// falls inside 10.0.0.0/24, so the ancestor must be re-signed.
	mutate(inc, fibs, "r3", entry("10.0.0.0/24", "198.51.100.7"), true)
	requireParity(t, inc, fibs, "more-specific insert")
	mutate(inc, fibs, "r3", entry("10.0.0.0/24", ""), false)
	requireParity(t, inc, fibs, "more-specific remove")

	// Brand-new prefix on a single router.
	mutate(inc, fibs, "r1", entry("172.16.0.0/12", "203.0.113.40"), true)
	requireParity(t, inc, fibs, "new prefix")
}

// TestIncrementalSingleFlushFullWithdrawal withdraws a prefix installed on
// exactly one router, in its own flush: the universe refcount drops to zero
// before the affected set is computed, so the prefix can only be retired by
// being added to the set unconditionally (regression for a bug where its
// stale class survived indefinitely).
func TestIncrementalSingleFlushFullWithdrawal(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/24")
	fibs := triesOf(map[string][]fib.Entry{"r1": {{Prefix: p, NextHop: netip.MustParseAddr("192.0.2.1")}}})
	inc := NewIncremental(nil)
	seedFrom(inc, fibs)
	requireParity(t, inc, fibs, "seed")

	mutate(inc, fibs, "r1", fib.Entry{Prefix: p}, false)
	requireParity(t, inc, fibs, "full withdrawal")
	if n := inc.Len(); n != 0 {
		t.Fatalf("classes after full withdrawal = %d, want 0", n)
	}
	if rep, ok := inc.ClassOf(p); ok {
		t.Fatalf("ClassOf after full withdrawal = %v, want unclassified", rep)
	}
}

func TestIncrementalDeltaCounts(t *testing.T) {
	fibs, prefixes := syntheticFIBs([]string{"r1", "r2"}, 10_000, 8)
	inc := NewIncremental(nil)
	seedFrom(inc, fibs)
	if d := inc.Update(); d.Resigned != 10_000 {
		t.Fatalf("seed flush resigned %d, want 10000", d.Resigned)
	}

	// A single /24 flip must re-sign only that prefix, not the universe.
	mutate(inc, fibs, "r1", fib.Entry{Prefix: prefixes[42], NextHop: netip.MustParseAddr("203.0.113.1")}, true)
	d := inc.Update()
	if d.Resigned != 1 || d.Moves != 1 {
		t.Fatalf("delta = %+v, want 1 resign / 1 move", d)
	}

	// No-op flush.
	if d := inc.Update(); d.Resigned != 0 || d.Moves != 0 {
		t.Fatalf("idle delta = %+v, want zero", d)
	}
}

func TestIncrementalWatchLiveTable(t *testing.T) {
	s := netsim.NewScheduler(1)
	log := capture.NewLog()
	tables := map[string]*fib.Table{}
	for _, r := range []string{"r1", "r2"} {
		tables[r] = fib.NewTable(capture.NewRecorder(log, r, s, nil))
	}
	tables["r1"].Offer(route.Route{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: netip.MustParseAddr("192.0.2.1"), Proto: route.ProtoOSPF})

	inc := NewIncremental(nil)
	for r, tbl := range tables {
		inc.Watch(r, tbl)
	}
	snap := func() map[string]*trie.Trie[fib.Entry] {
		out := map[string]*trie.Trie[fib.Entry]{}
		for r, tbl := range tables {
			out[r] = tbl.Snapshot()
		}
		return out
	}
	requireParity(t, inc, snap(), "after watch")

	// Updates flow through OnChange without further plumbing.
	tables["r2"].Offer(route.Route{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: netip.MustParseAddr("192.0.2.9"), Proto: route.ProtoOSPF})
	tables["r1"].Offer(route.Route{Prefix: netip.MustParsePrefix("10.2.0.0/16"), NextHop: netip.MustParseAddr("192.0.2.1"), Proto: route.ProtoBGP, PeerType: route.PeerEBGP})
	requireParity(t, inc, snap(), "after offers")

	tables["r1"].Withdraw(route.ProtoOSPF, netip.MustParsePrefix("10.1.0.0/16"))
	requireParity(t, inc, snap(), "after withdraw")

	// Arbitration no-ops (losing route offered) must not disturb parity.
	tables["r2"].Offer(route.Route{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: netip.MustParseAddr("192.0.2.50"), Proto: route.ProtoRIP, Metric: 5})
	requireParity(t, inc, snap(), "after losing offer")
}

// TestIncrementalQueueKeepsLastUpdatePerEntry flaps one prefix 10,000 times
// with no read in between, as a pipeline that never asks for its classes
// does: the queue holds one update for the entry, not 10,000, and the flush
// that finally runs still classifies exactly as Compute does.
func TestIncrementalQueueKeepsLastUpdatePerEntry(t *testing.T) {
	fibs, prefixes := syntheticFIBs([]string{"r1", "r2"}, 64, 4)
	inc := NewIncremental(nil)
	seedFrom(inc, fibs)
	requireParity(t, inc, fibs, "seed")

	flap := fib.Entry{Prefix: prefixes[7], NextHop: netip.MustParseAddr("203.0.113.1")}
	for i := 0; i < 10_000; i++ {
		mutate(inc, fibs, "r1", flap, i%2 == 0) // ends withdrawn
	}
	if n := len(inc.pending); n != 1 {
		t.Fatalf("%d queued updates after 10000 flaps of one entry, want 1", n)
	}
	requireParity(t, inc, fibs, "after the flaps")
}

func TestIncrementalRepresentatives(t *testing.T) {
	fibs, _ := syntheticFIBs([]string{"r1", "r2"}, 100, 5)
	inc := NewIncremental(nil)
	seedFrom(inc, fibs)
	// Each class is represented by its smallest member.
	for _, c := range Compute(fibs, nil) {
		for _, p := range c.Prefixes {
			if rep, ok := inc.ClassOf(p); !ok || rep != c.Prefixes[0] {
				t.Fatalf("ClassOf(%v) = %v, %v; want %v", p, rep, ok, c.Prefixes[0])
			}
		}
	}
}

// TestInternerCollision drives the linear-probing path directly: two
// distinct keys forced onto the same ID must intern to different IDs with
// their own renderings.
func TestInternerCollision(t *testing.T) {
	in := newInterner()
	k1 := []byte{1, 2, 3}
	id1 := in.intern(k1, func() string { return "one" })
	// Occupy nothing else; intern a key whose natural slot we usurp.
	k2 := []byte{9, 9, 9}
	in.byID[sigID(fnv64(k2))] = in.byID[id1] // simulate a hash collision
	id2 := in.intern(k2, func() string { return "two" })
	if id2 == sigID(fnv64(k2)) {
		t.Fatal("collision not probed past")
	}
	if in.str(id2) != "two" {
		t.Fatalf("collided key rendered %q, want %q", in.str(id2), "two")
	}
	if id1 == id2 {
		t.Fatal("distinct keys share an ID")
	}
}

func TestIncrementalManyRandomChurn(t *testing.T) {
	fibs, prefixes := syntheticFIBs([]string{"r1", "r2", "r3", "r4"}, 256, 3)
	inc := NewIncremental(nil)
	seedFrom(inc, fibs)
	routers := []string{"r1", "r2", "r3", "r4"}
	// Deterministic pseudo-random churn (no rand: keep failures replayable
	// from the step number alone).
	for i := 0; i < 200; i++ {
		r := routers[i%len(routers)]
		p := prefixes[(i*37)%len(prefixes)]
		switch i % 3 {
		case 0:
			nh := netip.AddrFrom4([4]byte{203, 0, 113, byte(i)})
			mutate(inc, fibs, r, fib.Entry{Prefix: p, NextHop: nh}, true)
		case 1:
			mutate(inc, fibs, r, fib.Entry{Prefix: p}, false)
		case 2:
			cover := netip.PrefixFrom(p.Addr(), 16)
			mutate(inc, fibs, r, fib.Entry{Prefix: cover, NextHop: netip.MustParseAddr("198.51.100.3")}, i%2 == 0)
		}
		if i%25 == 24 {
			requireParity(t, inc, fibs, fmt.Sprintf("churn step %d", i))
		}
	}
	requireParity(t, inc, fibs, "final")
}
