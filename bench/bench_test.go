package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// Every workload at smoke scale with every gate on, untraced and traced.
// The runs share the process heap, so they go one after another.
func TestSmoke(t *testing.T) {
	for _, name := range Workloads {
		for _, trace := range []bool{false, true} {
			res, err := Run(Config{Workload: name, Seed: 1, Seconds: 1, Smoke: true, Trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, res.Failed, res.Attempted)
			}
			defs := EndToEnd
			if trace {
				defs = PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d defined", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, d.Name, m.Value)
				}
			}
		}
	}
}

// One seed gives byte-identical schedules twice; another seed gives others.
func TestSchedulesFollowSeed(t *testing.T) {
	gen := func(name string, seed int64) []byte {
		inst, err := makers[name](Config{Workload: name, Seed: seed, Seconds: 1, Smoke: true})
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		defer inst.close()
		return inst.schedule()
	}
	for _, name := range Workloads {
		a, again, b := gen(name, 1), gen(name, 1), gen(name, 2)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 1 gave two different schedules", name)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", name)
		}
	}
}

// BENCHMARK.json and metrics.go name the same metrics, units, directions
// and bounds, and the same workloads.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []def `json:"end_to_end"`
		PerLayer   []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != RefSeconds {
		t.Errorf("run_seconds is %d, RefSeconds %d", file.RunSeconds, RefSeconds)
	}
	if len(file.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(file.Workloads), len(Workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d is %s, want %s", i, w.Name, Workloads[i])
		}
	}
	for _, c := range []struct {
		kind string
		got  []def
		want []Def
	}{{"end_to_end", file.EndToEnd, EndToEnd}, {"per_layer", file.PerLayer, PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics listed, %d defined", c.kind, len(c.got), len(c.want))
		}
		for i, g := range c.got {
			if w := c.want[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d is %+v, want %+v", c.kind, i, g, w)
			}
		}
	}
}
