package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"hbverify/internal/capture"
	"hbverify/internal/ciscolog"
	"hbverify/internal/stream"
)

// calibLines is the size of the calibration kernel: one goroutine parsing
// this many pre-rendered log lines. It is timed before and after a workload
// so a reader can tell a slow run from a slow machine.
const calibLines = 100_000

type calibration struct {
	log     []byte
	resolve ciscolog.Resolver
}

func newCalibration(lines int) (*calibration, error) {
	// Router 1 of a four-router line logs three events per wave.
	f := stream.Fleet{Routers: 4, Waves: lines / 3}
	log, err := io.ReadAll(f.Reader(1))
	if err != nil {
		return nil, fmt.Errorf("render calibration log: %w", err)
	}
	return &calibration{log: log, resolve: f.Resolver()}, nil
}

// run returns the median of three timings of the kernel, in ms.
func (c *calibration) run() float64 {
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		p := ciscolog.NewParser(c.resolve)
		// The log was rendered by the emitter a moment ago; a parse error
		// would show as a wrong line count in every ciscolog metric.
		_ = p.ParseReader("r1", bytes.NewReader(c.log), func(capture.IO) error { return nil })
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms)
}
