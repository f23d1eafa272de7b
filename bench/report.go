package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// expectedJSON holds, per workload and kind of run, the counts seed 1 gives
// at the reference length that depend on the generated inputs and on what
// the protocols must do with them, not on how a layer is implemented. A run
// at seed 1 that disagrees generated other inputs or got a wrong output.
//
//go:embed expected.json
var expectedJSON []byte

// machineLine records what the numbers were measured on.
func machineLine() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fmt.Sprintf("machine: GOMAXPROCS=%d nproc=%d cpu=%q %s %s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func checkExpected(cfg Config, res *Result) error {
	if cfg.Seed != 1 || cfg.Seconds != RefSeconds || cfg.Smoke {
		return nil
	}
	var all map[string]map[string]int64
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	key := cfg.Workload + "/untraced"
	if cfg.Trace {
		key = cfg.Workload + "/traced"
	}
	for name, want := range all[key] {
		if got, ok := res.Counts[name]; !ok || got != want {
			return fmt.Errorf("%s: count %s is %d, expected.json records %d for seed 1", key, name, got, want)
		}
	}
	return nil
}

// RunAndReport runs one workload, prints every metric by name and unit, and
// ends with the one-line JSON result. It returns an error when the run could
// not be made, a deterministic count is off, or an operation failed its
// check.
func RunAndReport(w io.Writer, cfg Config) error {
	res, err := Run(cfg)
	if err != nil {
		return err
	}
	if err := checkExpected(cfg, res); err != nil {
		return err
	}
	trace := 0
	if cfg.Trace {
		trace = 1
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %d smoke %v\n", cfg.Workload, cfg.Seed, cfg.Seconds, trace, cfg.Smoke)
	fmt.Fprintln(w, machineLine())
	defs := EndToEnd
	if cfg.Trace {
		defs = PerLayer
	}
	for _, d := range defs {
		note := ""
		switch d.Name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", setupReps)
		case "op_ms_p50":
			note = fmt.Sprintf("n=%d", res.OpSamples)
		case "heavy_op_ms_p50":
			note = fmt.Sprintf("n=%d", res.HeavySamples)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit, note)
	}
	fmt.Fprintf(w, "  ops_attempted %d ops_failed %d\n", res.Attempted, res.Failed)
	fmt.Fprintf(w, "  machine.calib_ms before %.2f after %.2f noisy: %v\n", res.CalibBeforeMs, res.CalibAfterMs, res.Noisy)
	names := make([]string, 0, len(res.Counts))
	for name := range res.Counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  count %-34s %d\n", name, res.Counts[name])
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their checks", cfg.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// SelfCheck runs the full untraced pass twice, A then B, and prints for
// every workload and end-to-end metric how far B is from A against the
// metric's bound. Deterministic counts must agree exactly. It returns an
// error when any difference exceeds its bound.
func SelfCheck(w io.Writer, cfg Config) error {
	cfg.Trace = false
	fmt.Fprintln(w, machineLine())
	fmt.Fprintf(w, "seed %d seconds %d smoke %v\n", cfg.Seed, cfg.Seconds, cfg.Smoke)
	var passes [2]map[string]*Result
	for i := range passes {
		passes[i] = map[string]*Result{}
		for _, name := range Workloads {
			cfg.Workload = name
			res, err := Run(cfg)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed their checks", name, res.Failed, res.Attempted)
			}
			passes[i][name] = res
		}
	}
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	var over []string
	for _, name := range Workloads {
		a, b := passes[0][name], passes[1][name]
		if err := sameCounts(a.Counts, b.Counts); err != nil {
			return fmt.Errorf("%s: pass A vs pass B: %w", name, err)
		}
		for _, d := range EndToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := (vb - va) / va
			if diff < 0 {
				diff = -diff
			}
			mark := ""
			if diff > d.Bound {
				mark = "  OVER"
				over = append(over, name+"/"+d.Name)
			}
			fmt.Fprintf(w, "%-15s %-16s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", name, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
		fmt.Fprintf(w, "%-15s noisy: A %v B %v; deterministic counts agree\n", name, a.Noisy, b.Noisy)
	}
	if len(over) > 0 {
		return fmt.Errorf("two passes of the same code disagree beyond the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
