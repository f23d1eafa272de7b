package verify

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"hbverify/internal/dataplane"
)

// fakeExec answers every walk with a two-router delivery at "egress",
// records the batches it was handed, fails the keys listed in fail, and
// runs during (if set) while the batch is "in flight".
type fakeExec struct {
	batches [][]WalkKey
	fail    map[WalkKey]error
	during  func()
}

func (f *fakeExec) ExecuteWalks(keys []WalkKey) ([]dataplane.Walk, []error) {
	f.batches = append(f.batches, append([]WalkKey(nil), keys...))
	if f.during != nil {
		f.during()
	}
	walks := make([]dataplane.Walk, len(keys))
	var errs []error
	for i, k := range keys {
		if err := f.fail[k]; err != nil {
			if errs == nil {
				errs = make([]error, len(keys))
			}
			errs[i] = err
			continue
		}
		walks[i] = dataplane.Walk{Dst: k.Dst, Outcome: dataplane.Delivered, Path: []string{k.Source, "egress"}, Egress: "egress"}
	}
	return walks, errs
}

func keysOf(srcs []string, dst netip.Addr) []WalkKey {
	out := make([]WalkKey, len(srcs))
	for i, s := range srcs {
		out[i] = WalkKey{Source: s, Dst: dst}
	}
	return out
}

// TestCheckerGrid pins what the one checker asks its executor for and in
// what order it answers: the grid is policy order then sorted default
// sources, k policies over one prefix need one walk per source, a
// certificate removes checks (and a walk only when no other check needs
// it), and a failed walk leaves its checks without a verdict.
func TestCheckerGrid(t *testing.T) {
	p := netip.MustParsePrefix("203.0.113.0/24")
	q := netip.MustParsePrefix("198.51.100.0/24")
	pd, qd := dataplane.Representative(p), dataplane.Representative(q)
	boom := errors.New("boom")
	allKinds := []Policy{
		{Kind: Reachable, Prefix: p}, {Kind: NoLoop, Prefix: p}, {Kind: NoBlackhole, Prefix: p},
		{Kind: Egress, Prefix: p, Expect: "egress"}, {Kind: Waypoint, Prefix: p, Expect: "egress"},
		{Kind: Avoid, Prefix: p, Expect: "nowhere"}, {Kind: EcmpConsistent, Prefix: p},
	}
	certifyAll := func(string, netip.Prefix) bool { return true }

	cases := []struct {
		name      string
		sources   []string // handed to NewChecker unsorted
		policies  []Policy
		certified func(string, netip.Prefix) bool
		fail      map[WalkKey]error

		wantKeys   []WalkKey // the single batch the executor must see; nil = never called
		wantOrder  []string  // "kind source" per check, in Results order
		wantReport Report    // counters only
	}{
		{
			name:    "grid order is policy order, then sorted sources",
			sources: []string{"c", "a", "b"},
			policies: []Policy{
				{Kind: NoLoop, Prefix: q},
				{Kind: Reachable, Prefix: p, Sources: []string{"z", "y"}}, // explicit sources keep their order
			},
			wantKeys:   append(keysOf([]string{"a", "b", "c"}, qd), keysOf([]string{"z", "y"}, pd)...),
			wantOrder:  []string{"no-loop a", "no-loop b", "no-loop c", "reachable z", "reachable y"},
			wantReport: Report{Checked: 5, Walks: 5},
		},
		{
			name:       "k policies on one prefix are one walk per source",
			sources:    []string{"a", "b"},
			policies:   allKinds[:3],
			wantKeys:   keysOf([]string{"a", "b"}, pd),
			wantOrder:  []string{"reachable a", "reachable b", "no-loop a", "no-loop b", "no-blackhole a", "no-blackhole b"},
			wantReport: Report{Checked: 6, Walks: 2, Deduped: 4},
		},
		{
			name:       "a certified check asks for no walk",
			sources:    []string{"a", "b"},
			policies:   allKinds[:3],
			certified:  func(src string, _ netip.Prefix) bool { return src == "a" },
			wantKeys:   keysOf([]string{"b"}, pd),
			wantOrder:  []string{"reachable a*", "reachable b", "no-loop a*", "no-loop b", "no-blackhole a*", "no-blackhole b"},
			wantReport: Report{Checked: 6, Certified: 3, Walks: 1, Deduped: 2},
		},
		{
			name:       "everything certified never reaches the executor",
			sources:    []string{"a"},
			policies:   allKinds[:3],
			certified:  certifyAll,
			wantOrder:  []string{"reachable a*", "no-loop a*", "no-blackhole a*"},
			wantReport: Report{Checked: 3, Certified: 3},
		},
		{
			name:       "path-dependent kinds are never certified, and keep the walk alive",
			sources:    []string{"a"},
			policies:   allKinds,
			certified:  certifyAll,
			wantKeys:   keysOf([]string{"a"}, pd),
			wantOrder:  []string{"reachable a*", "no-loop a*", "no-blackhole a*", "egress a", "waypoint a", "avoid a", "ecmp-consistent a"},
			wantReport: Report{Checked: 7, Certified: 3, Walks: 1, Deduped: 3},
		},
		{
			name:       "a failed walk is an error on each of its checks, not a verdict",
			sources:    []string{"a", "b"},
			policies:   []Policy{{Kind: Reachable, Prefix: p}, {Kind: Egress, Prefix: p, Expect: "elsewhere"}},
			fail:       map[WalkKey]error{{Source: "b", Dst: pd}: boom},
			wantKeys:   keysOf([]string{"a", "b"}, pd),
			wantOrder:  []string{"reachable a", "reachable b!", "egress a", "egress b!"},
			wantReport: Report{Checked: 2, Errors: 2, Walks: 2, Deduped: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := &fakeExec{fail: tc.fail}
			c := NewChecker(nil, tc.sources)
			c.Executor, c.Certified = ex, tc.certified
			rep := c.Check(tc.policies)

			var got []WalkKey
			if len(ex.batches) > 1 {
				t.Fatalf("executor called %d times, want one batch", len(ex.batches))
			} else if len(ex.batches) == 1 {
				got = ex.batches[0]
			}
			if !reflect.DeepEqual(got, tc.wantKeys) {
				t.Errorf("executor keys:\n got  %v\n want %v", got, tc.wantKeys)
			}
			var order []string
			for _, r := range rep.Results() {
				s := fmt.Sprintf("%s %s", r.Policy.Kind, r.Source)
				switch {
				case r.Certified:
					s += "*"
				case r.Err != nil:
					s += "!"
					if !errors.Is(r.Err, boom) || len(r.Walk.Path) != 0 {
						t.Errorf("%s: err %v, walk %v", s, r.Err, r.Walk)
					}
				default:
					if r.Walk.Egress != "egress" || r.Walk.Path[0] != r.Source {
						t.Errorf("%s answered by walk %v", s, r.Walk)
					}
				}
				order = append(order, s)
			}
			if !reflect.DeepEqual(order, tc.wantOrder) {
				t.Errorf("results:\n got  %v\n want %v", order, tc.wantOrder)
			}
			counters := Report{Checked: rep.Checked, Walks: rep.Walks, Cached: rep.Cached,
				Deduped: rep.Deduped, Certified: rep.Certified, Errors: rep.Errors}
			if !reflect.DeepEqual(counters, tc.wantReport) {
				t.Errorf("report counters %+v, want %+v", counters, tc.wantReport)
			}
			if tc.wantReport.Errors > 0 {
				if rep.OK() {
					t.Error("a report with unanswered checks reads OK")
				}
				// "egress elsewhere" from a would be a violation; from b it has
				// no verdict at all.
				for _, v := range rep.Violations {
					if v.Source == "b" {
						t.Errorf("failed walk produced a verdict: %v", v)
					}
				}
			}
		})
	}
}

// TestCheckerCacheContract pins the order of the checker's cache calls
// around an executor it does not control: the store epoch is taken before
// the first cache read, so an invalidation that lands while the batch is
// out makes the stored walks already stale, and failed walks are never
// stored.
func TestCheckerCacheContract(t *testing.T) {
	p := netip.MustParsePrefix("203.0.113.0/24")
	pd := dataplane.Representative(p)
	policies := []Policy{{Kind: Reachable, Prefix: p}}
	cache := NewWalkCache()
	ex := &fakeExec{}
	c := NewChecker(nil, []string{"a", "b"})
	c.Executor, c.Cache = ex, cache

	if rep := c.Check(policies); rep.Walks != 2 || rep.Cached != 0 {
		t.Fatalf("cold run: %+v", rep)
	}
	if rep := c.Check(policies); rep.Walks != 0 || rep.Cached != 2 || len(ex.batches) != 1 {
		t.Fatalf("warm run: %+v after %d batches", rep, len(ex.batches))
	}

	// "a" changes: only the walk through it re-executes — and while that
	// batch is out, "egress" (on every path) changes too.
	cache.InvalidateRouter("a")
	ex.during = func() { cache.InvalidateRouter("egress") }
	if rep := c.Check(policies); rep.Walks != 1 || rep.Cached != 1 || !reflect.DeepEqual(ex.batches[1], keysOf([]string{"a"}, pd)) {
		t.Fatalf("after invalidating a: %+v, batch %v", rep, ex.batches[1])
	}
	ex.during = nil
	if rep := c.Check(policies); rep.Walks != 2 {
		t.Fatalf("walks stored across a racing invalidation were served as fresh: %+v", rep)
	}

	// A failed walk stores nothing: the next run asks for it again.
	cache.InvalidateRouter("b")
	ex.fail = map[WalkKey]error{{Source: "b", Dst: pd}: errors.New("dead peer")}
	if rep := c.Check(policies); rep.Errors != 1 || rep.Checked != 1 {
		t.Fatalf("failing run: %+v", rep)
	}
	ex.fail = nil
	if rep := c.Check(policies); rep.Walks != 1 || rep.Cached != 1 || !rep.OK() {
		t.Fatalf("run after the failure: %+v", rep)
	}
}
