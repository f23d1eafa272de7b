package hbverify

import (
	"testing"

	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/snapshot"
)

// TestInferenceAllocationBudget holds the property the inference kernel is
// built around, as bytes rather than a timing: one pass over the log
// allocates words per event plus the one copy the graph owns, and a
// consistency check allocates words per vertex. A by-value helper or a
// second copy of the log anywhere on the path — an event is 320 bytes —
// breaks the first bound; a per-FIB-update provenance query or a Nodes()
// call breaks the second.
func TestInferenceAllocationBudget(t *testing.T) {
	const eventBytes = 320
	// r0's log stops halfway, so the check below has missing sends to find.
	all := benchInferLog(42, 20_000, 12)
	ios := snapshot.Collect(all, snapshot.Cut{"r0": all[len(all)/2].Time})
	var g *hbg.Graph
	infer := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g = hbr.Rules{}.Infer(ios)
		}
	})
	if got, budget := infer.AllocedBytesPerOp()/int64(len(ios)), int64(2*eventBytes); got > budget {
		t.Errorf("Rules inference allocates %d B per event, budget %d", got, budget)
	}
	if g.NodeCount() != len(ios) || g.EdgeCount() < len(ios)/2 {
		t.Fatalf("inferred %d nodes and %d edges over %d events", g.NodeCount(), g.EdgeCount(), len(ios))
	}
	var res snapshot.Result
	check := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res = snapshot.Check(g, nil)
		}
	})
	if got, budget := check.AllocedBytesPerOp()/int64(g.NodeCount()), int64(96); got > budget {
		t.Errorf("snapshot.Check allocates %d B per vertex, budget %d", got, budget)
	}
	if res.Consistent || len(res.Missing) == 0 {
		t.Fatalf("check over a cut log found nothing missing: %+v", res)
	}
	t.Logf("inference %d B/event (%d allocs), check %d B/vertex, %d missing",
		infer.AllocedBytesPerOp()/int64(len(ios)), infer.AllocsPerOp(), check.AllocedBytesPerOp()/int64(g.NodeCount()), len(res.Missing))
}
