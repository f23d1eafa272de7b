// Simulation-kernel determinism: replay and shrinking rerun a materialized
// schedule and expect the very same run. Two runs of one schedule, over the
// full shape x mix matrix, must produce byte-identical capture logs — every
// I/O, ID, timestamp, and cause chain — and byte-identical encoded HBG
// checkpoints. (Wheel-vs-heap firing order is netsim's
// TestKernelsFireIdenticalTraces.)

package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
)

// runKernelTrace replays cfg's materialized schedule (the Run loop minus
// the oracle harness) and returns the rendered capture log plus the
// deterministic encoding of a checkpoint built from full inference over it.
func runKernelTrace(t *testing.T, cfg Config) (string, []byte) {
	t.Helper()
	w, err := buildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.net.Start()
	if err := w.net.Run(); err != nil {
		t.Fatal(err)
	}
	byRound := map[int][]Event{}
	for _, ev := range cfg.Schedule {
		byRound[ev.Round] = append(byRound[ev.Round], ev)
	}
	for round := 0; round < cfg.Rounds; round++ {
		base := w.net.Sched.Now().Add(roundGap)
		for _, ev := range byRound[round] {
			ev := ev
			w.net.Sched.At(base.Add(time.Duration(ev.At)), func() { applyEvent(w, ev) })
		}
		if err := w.net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	ios := w.net.Log.Snapshot()
	var sb strings.Builder
	for _, io := range ios {
		fmt.Fprintf(&sb, "%d %s t=%d tt=%d causes=%v attrs=%+v\n",
			io.ID, io.String(), io.Time, io.TrueTime, io.Causes, io.Attrs)
	}
	cp := &hbg.Checkpoint{Graph: hbr.Rules{}.Infer(ios), Retained: ios}
	if len(ios) > 0 {
		cp.LastID = ios[len(ios)-1].ID
		cp.FirstRetainedID = ios[0].ID
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return sb.String(), buf.Bytes()
}

func TestKernelDeterminismAcrossMatrix(t *testing.T) {
	for _, shape := range Shapes {
		for _, mix := range Mixes {
			t.Run(shape+"/"+mix, func(t *testing.T) {
				cfg, err := Materialize(Config{Seed: 11, Shape: shape, Mix: mix, Rounds: 2})
				if err != nil {
					t.Fatal(err)
				}
				firstLog, firstCkpt := runKernelTrace(t, cfg)
				secondLog, secondCkpt := runKernelTrace(t, cfg)
				if firstLog != secondLog {
					t.Fatalf("capture logs diverged between runs:\n%s", firstLogDiff(firstLog, secondLog))
				}
				if !bytes.Equal(firstCkpt, secondCkpt) {
					t.Fatal("encoded HBG checkpoints diverged between runs")
				}
			})
		}
	}
}

func firstLogDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  first:  %s\n  second: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: first %d lines, second %d lines", len(al), len(bl))
}
