package eqclass

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"hbverify/internal/capture"
	"hbverify/internal/fib"
	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

// TestIncrementalLiveTablesUnderRacingWriters: writers Offer and Withdraw
// on live tables while readers flush through ClassOf and Classes, so
// flushes read tables mid-change. Once the writers stop, one more flush
// must classify exactly as Compute over fresh snapshots — signature
// strings included, since a string rendered from a table read other than
// the key's would stay interned.
func TestIncrementalLiveTablesUnderRacingWriters(t *testing.T) {
	s := netsim.NewScheduler(1)
	log := capture.NewLog()
	routers := []string{"r1", "r2", "r3", "r4"}
	tables := map[string]*fib.Table{}
	inc := NewIncremental(nil)
	for _, r := range routers {
		tables[r] = fib.NewTable(capture.NewRecorder(log, r, s, nil))
		inc.Watch(r, tables[r])
	}
	// Nested prefixes, so a write re-signs ancestors and descendants too.
	prefixes := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16"), netip.MustParsePrefix("10.0.0.0/25")}
	for i := 0; i < 8; i++ {
		prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24))
	}
	hops := []netip.Addr{netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"), netip.MustParseAddr("192.0.2.3")}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w, r := range routers {
		writers.Add(1)
		go func(tbl *fib.Table, rng *rand.Rand) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				p := prefixes[rng.Intn(len(prefixes))]
				if rng.Intn(3) == 0 {
					tbl.Withdraw(route.ProtoStatic, p)
					continue
				}
				rt := route.Route{Prefix: p, Proto: route.ProtoStatic}
				if rng.Intn(2) == 0 {
					rt = rt.WithNextHops(hops[rng.Intn(len(hops))], hops[rng.Intn(len(hops))])
				} else {
					rt.NextHop = hops[rng.Intn(len(hops))]
				}
				tbl.Offer(rt)
			}
		}(tables[r], rand.New(rand.NewSource(int64(w+1))))
	}
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i == 0 {
					inc.Classes()
					continue
				}
				for _, p := range prefixes {
					inc.ClassOf(p)
				}
			}
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	got, want := inc.Classes(), Compute(snapshotOf(tables), nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the writers stopped, incremental diverges from Compute:\n got %v\nwant %v", got, want)
	}
	for _, c := range want {
		if rep, ok := inc.ClassOf(c.Prefixes[len(c.Prefixes)-1]); !ok || rep != c.Prefixes[0] {
			t.Fatalf("ClassOf(%v) = %v, %v; want %v", c.Prefixes[len(c.Prefixes)-1], rep, ok, c.Prefixes[0])
		}
	}
	t.Logf("%d classes over %d prefixes after %d FIB events", len(want), len(prefixes), log.Len())
}

// flipTable answers each Lookup with the other of two entries, as a table
// that a writer changes between any two reads would.
type flipTable struct {
	fib.Reader
	entries [2]fib.Entry
	reads   int
}

func (f *flipTable) Lookup(netip.Addr) (fib.Entry, bool) {
	f.reads++
	return f.entries[f.reads%2], true
}

// TestIncrementalSignatureRenderedFromItsOwnLookups pins what the racing
// test can only hit by chance: a new signature's string is rendered from
// the lookups that built its key, not from a second read that a writer may
// have changed in between.
func TestIncrementalSignatureRenderedFromItsOwnLookups(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/24")
	l := &lookupper{tables: map[string]fib.Reader{}, in: newInterner()}
	l.add("r1", &flipTable{entries: [2]fib.Entry{entry("10.0.0.0/24", "192.0.2.1"), entry("10.0.0.0/24", "192.0.2.2")}})
	for _, want := range []string{"r1=192.0.2.2", "r1=192.0.2.1"} {
		if got := l.in.str(l.sign(p)); got != want {
			t.Fatalf("signature rendered %q, want %q: the string came from another read than the key", got, want)
		}
	}
}
