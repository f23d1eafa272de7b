// HTTP façade: the query engine as verifyd's operator endpoint. One
// GET per question keeps the surface scriptable (curl, dashboards); the
// engine underneath coalesces and caches exactly as for in-process
// callers, so a burst of identical operator queries costs one walk.

package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/netip"

	"hbverify/internal/topology"
)

// WalkJSON is the wire form of the data-plane walk backing an answer.
type WalkJSON struct {
	Outcome string   `json:"outcome"`
	Path    []string `json:"path,omitempty"`
	Egress  string   `json:"egress,omitempty"`
}

// AnswerJSON is the wire form of an Answer.
type AnswerJSON struct {
	OK           bool     `json:"ok"`
	Violations   []string `json:"violations,omitempty"`
	PlanKey      string   `json:"planKey"`
	CacheHit     bool     `json:"cacheHit"`
	Coalesced    bool     `json:"coalesced"`
	LatencyMicro int64    `json:"latencyMicros"`
	Walk         WalkJSON `json:"walk"`
}

// StatsJSON is the wire form of /stats.
type StatsJSON struct {
	Queries   int64   `json:"queries"`
	PlanHits  int64   `json:"planHits"`
	Coalesced int64   `json:"coalesced"`
	Executed  int64   `json:"executed"`
	Rejected  int64   `json:"rejected"`
	WhatIfs   int64   `json:"whatIfs"`
	HitRatio  float64 `json:"hitRatio"`
	P50Micros int64   `json:"p50Micros"`
	P99Micros int64   `json:"p99Micros"`
}

// Handler exposes the engine over HTTP:
//
//	GET /query?kind=reachability&source=r1&prefix=203.0.113.0/24
//	GET /query?kind=waypoint&source=r3&prefix=203.0.113.0/24&via=r2
//	GET /query?kind=isolation&source=r1&prefix=198.51.100.0/24&avoid=e1
//	GET /stats
//
// A source, via or avoid naming a router topo does not have is refused with
// 400: the walk from a router that does not exist is a verdict about
// nothing, and the engine would cache it under that name.
func Handler(e *Engine, topo *topology.Topology) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) { handleQuery(e, topo, w, r) })
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) { handleStats(e, w) })
	return mux
}

func handleQuery(e *Engine, topo *topology.Topology, w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	router := func(param string) (string, bool) {
		name := qs.Get(param)
		if topo.Router(name) == nil {
			http.Error(w, "missing or unknown router "+param+"="+name, http.StatusBadRequest)
			return "", false
		}
		return name, true
	}
	source, ok := router("source")
	if !ok {
		return
	}
	prefix, err := netip.ParsePrefix(qs.Get("prefix"))
	if err != nil {
		http.Error(w, "bad prefix: "+err.Error(), http.StatusBadRequest)
		return
	}
	var q Query
	switch kind := qs.Get("kind"); kind {
	case "", "reachability":
		q = Reachability(source, prefix)
	case "waypoint":
		via, ok := router("via")
		if !ok {
			return
		}
		q = Waypoint(source, prefix, via)
	case "isolation":
		avoid, ok := router("avoid")
		if !ok {
			return
		}
		q = Isolation(source, prefix, avoid)
	default:
		http.Error(w, "unknown kind "+kind, http.StatusBadRequest)
		return
	}

	ans, err := e.Query(q)
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := AnswerJSON{
		OK:           ans.OK,
		PlanKey:      ans.PlanKey,
		CacheHit:     ans.CacheHit,
		Coalesced:    ans.Coalesced,
		LatencyMicro: ans.Latency.Microseconds(),
		Walk: WalkJSON{
			Outcome: ans.Walk.Outcome.String(),
			Path:    ans.Walk.Path,
			Egress:  ans.Walk.Egress,
		},
	}
	for _, v := range ans.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	writeJSON(w, out)
}

func handleStats(e *Engine, w http.ResponseWriter) {
	s := e.Stats()
	writeJSON(w, StatsJSON{
		Queries:   s.Queries,
		PlanHits:  s.PlanHits,
		Coalesced: s.Coalesced,
		Executed:  s.Executed,
		Rejected:  s.Rejected,
		WhatIfs:   s.WhatIfs,
		HitRatio:  s.HitRatio(),
		P50Micros: e.latency.Quantile(0.5).Microseconds(),
		P99Micros: e.latency.Quantile(0.99).Microseconds(),
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
