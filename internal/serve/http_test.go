package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

func getJSON(t *testing.T, h http.Handler, url string, out interface{}) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// The HTTP façade answers the paper network's operator questions and
// surfaces the engine's service counters.
func TestHTTPQueryEndpoint(t *testing.T) {
	w := startPaper(t)
	e := w.engine(Config{})
	defer e.Close()
	h := Handler(e, w.pn.Topo)

	var ans AnswerJSON
	if code := getJSON(t, h, "/query?kind=reachability&source=r1&prefix=203.0.113.0/24", &ans); code != http.StatusOK {
		t.Fatalf("reachability: status %d", code)
	}
	if !ans.OK || ans.Walk.Outcome != "delivered" {
		t.Errorf("reachability answer = %+v, want ok/delivered", ans)
	}
	// Same plan again over the wire: the shared cache answers.
	if getJSON(t, h, "/query?kind=reachability&source=r1&prefix=203.0.113.0/24", &ans); !ans.CacheHit {
		t.Error("repeat HTTP query missed the plan cache")
	}
	// r2 prefers its own provider e2, so traffic to P never crosses r1.
	if code := getJSON(t, h, "/query?kind=isolation&source=r2&prefix=203.0.113.0/24&avoid=r1", &ans); code != http.StatusOK || !ans.OK {
		t.Errorf("isolation: status %d answer %+v", code, ans)
	}
	// A waypoint the paper network violates: r2's path to P is r2->e2.
	if code := getJSON(t, h, "/query?kind=waypoint&source=r2&prefix=203.0.113.0/24&via=r1", &ans); code != http.StatusOK {
		t.Fatalf("waypoint: status %d", code)
	} else if ans.OK || len(ans.Violations) == 0 {
		t.Errorf("waypoint via r1 from r2 should be violated, got %+v", ans)
	}

	var errBody interface{}
	for _, bad := range []string{
		"/query?kind=reachability&prefix=203.0.113.0/24",        // no source
		"/query?kind=reachability&source=r1&prefix=nonsense",    // bad prefix
		"/query?kind=waypoint&source=r1&prefix=203.0.113.0/24",  // no via
		"/query?kind=isolation&source=r1&prefix=203.0.113.0/24", // no avoid
		"/query?kind=wat&source=r1&prefix=203.0.113.0/24",       // unknown kind
	} {
		if code := getJSON(t, h, bad, &errBody); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}

	var st StatsJSON
	if code := getJSON(t, h, "/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Queries < 4 || st.PlanHits == 0 || st.HitRatio <= 0 {
		t.Errorf("stats = %+v, want queries, hits, ratio", st)
	}
	if st.P50Micros < 0 || st.P99Micros < st.P50Micros {
		t.Errorf("stats quantiles inconsistent: %+v", st)
	}
}

// Queries against a closed engine fail with 503, not a hang or a 500.
func TestHTTPQueryClosedEngine(t *testing.T) {
	w := startPaper(t)
	e := w.engine(Config{})
	h := Handler(e, w.pn.Topo)
	e.Close()
	var out interface{}
	if code := getJSON(t, h, "/query?source=r1&prefix=203.0.113.0/24", &out); code != http.StatusServiceUnavailable {
		t.Errorf("closed engine: status %d, want 503", code)
	}
}

// TestHTTPRejectsUnknownRouters: a query naming a router the topology does
// not have — as source, via or avoid — is a 400, and it leaves nothing in
// the shared walk cache. (Answered, it was a "stuck" violation or an "ok"
// about nothing, and every distinct unknown source cached one more walk.)
func TestHTTPRejectsUnknownRouters(t *testing.T) {
	w := startPaper(t)
	e := w.engine(Config{})
	defer e.Close()
	h := Handler(e, w.pn.Topo)
	var ans AnswerJSON
	if code := getJSON(t, h, "/query?source=r1&prefix=203.0.113.0/24", &ans); code != http.StatusOK {
		t.Fatalf("known source: status %d", code)
	}
	cached := w.cache.Len()
	for _, bad := range []string{
		"/query?source=nosuch&prefix=203.0.113.0/24",
		"/query?source=nosuch&prefix=203.0.113.0/24", // the repeat must not be a cache hit
		"/query?kind=isolation&source=r1&prefix=203.0.113.0/24&avoid=nosuch",
		"/query?kind=waypoint&source=r1&prefix=203.0.113.0/24&via=nosuch",
		"/query?kind=waypoint&source=nosuch&prefix=203.0.113.0/24&via=r1",
	} {
		if code := getJSON(t, h, bad, &ans); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}
	for i := 0; i < 100; i++ {
		if code := getJSON(t, h, fmt.Sprintf("/query?source=ghost%d&prefix=203.0.113.0/24", i), &ans); code != http.StatusBadRequest {
			t.Fatalf("unknown source ghost%d: status %d, want 400", i, code)
		}
	}
	if got := w.cache.Len(); got != cached {
		t.Fatalf("unknown routers grew the walk cache from %d to %d entries", cached, got)
	}
}

// FuzzQueryHandler drives /query with arbitrary query strings. Whatever
// arrives: no panic; the status is 200, 400 or 503; a 200 names only routers
// the topology has, in the query and in the walk it answers with; and the
// walk cache grows only for a query the handler answered from a known
// source.
func FuzzQueryHandler(f *testing.F) {
	for _, q := range []string{
		"kind=reachability&source=r1&prefix=203.0.113.0/24",
		"kind=waypoint&source=r3&prefix=203.0.113.0/24&via=r2",
		"kind=isolation&source=r1&prefix=198.51.100.0/24&avoid=e1",
		"source=nosuch&prefix=203.0.113.0/24",
		"kind=isolation&source=r1&prefix=203.0.113.0/24&avoid=nosuch",
		"source=r1&prefix=nonsense",
		"kind=wat&source=r1&prefix=203.0.113.0/24",
		"source=r1&source=nosuch&prefix=10.0.0.0/8;%zz",
	} {
		f.Add(q)
	}
	w := startPaper(f)
	e := w.engine(Config{})
	defer e.Close()
	h := Handler(e, w.pn.Topo)
	known := func(name string) bool { return w.pn.Topo.Router(name) != nil }
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/query", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		before := w.cache.Len()
		h.ServeHTTP(rec, req)
		grew := w.cache.Len() > before
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			if grew {
				t.Fatalf("%q: status %d, yet the walk cache grew", raw, rec.Code)
			}
			return
		default:
			t.Fatalf("%q: status %d", raw, rec.Code)
		}
		qs, _ := url.ParseQuery(raw)
		names := []string{qs.Get("source")}
		switch qs.Get("kind") {
		case "waypoint":
			names = append(names, qs.Get("via"))
		case "isolation":
			names = append(names, qs.Get("avoid"))
		}
		var ans AnswerJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			t.Fatalf("%q: bad JSON %q: %v", raw, rec.Body.String(), err)
		}
		for _, name := range append(names, ans.Walk.Path...) {
			if !known(name) {
				t.Fatalf("%q: a 200 names router %q the topology does not have", raw, name)
			}
		}
	})
}
