package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"hbverify/internal/serve"
)

// TestQueryMode drives -query-addr's handler over HTTP: a reachability
// query from r1 toward the paper prefix answers ok via e2, and /stats
// counts it.
func TestQueryMode(t *testing.T) {
	h, closeEngine, err := queryHandler()
	if err != nil {
		t.Fatal(err)
	}
	defer closeEngine()
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	var ans serve.AnswerJSON
	get("/query?kind=reachability&source=r1&prefix=203.0.113.0/24", &ans)
	if !ans.OK || ans.Walk.Egress != "e2" {
		t.Fatalf("answer = %+v, want ok via e2", ans)
	}
	var st serve.StatsJSON
	get("/stats", &st)
	if st.Queries != 1 {
		t.Fatalf("stats count %d queries, want 1", st.Queries)
	}
}

// TestServeModeCheckpointRestart runs serve mode twice against the same
// checkpoint: the first run streams, compacts, and checkpoints; the second
// must recover and replay to an identical event total without re-ingesting
// what the checkpoint already covers.
func TestServeModeCheckpointRestart(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "verifyd.ckpt")
	o := serveOpts{routers: 3, waves: 400, checkpoint: ckpt, compactEvery: 256}

	var first bytes.Buffer
	if err := runServe(&first, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "checkpoint written") {
		t.Fatalf("first run wrote no checkpoint:\n%s", first.String())
	}

	var second bytes.Buffer
	if err := runServe(&second, o); err != nil {
		t.Fatal(err)
	}
	out := second.String()
	if !strings.Contains(out, "recovered checkpoint") {
		t.Fatalf("second run did not recover:\n%s", out)
	}
	if !strings.Contains(out, "(0 this run)") {
		t.Fatalf("second run re-ingested events past the final checkpoint:\n%s", out)
	}
}

func TestServeModeRejectsTinyFleet(t *testing.T) {
	if err := runServe(&bytes.Buffer{}, serveOpts{routers: 1, waves: 10}); err == nil {
		t.Fatal("single-router fleet accepted")
	}
}
