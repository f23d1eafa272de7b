package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"hbverify"
	"hbverify/internal/capture"
	"hbverify/internal/ciscolog"
	"hbverify/internal/config"
	"hbverify/internal/dataplane"
	"hbverify/internal/hbg"
	"hbverify/internal/network"
	"hbverify/internal/repair"
	"hbverify/internal/snapshot"
	"hbverify/internal/verify"
)

// faultLoop is the paper's loop on the cold path. Each cycle misconfigures
// r2's uplink local-pref below r1's, so all 64 prefixes leave through e1
// and every Egress(p, e2) policy is violated from all three sources; the
// cycle then captures, round-trips the new log lines, infers, verifies a
// staggered snapshot, diagnoses, rolls back, reconverges and verifies
// clean. The capture log is never compacted: VerifySnapshot needs the whole
// log, so cost grows with history, which is what an incremental frontier
// should flatten.
type faultLoop struct {
	cfg      Config
	prefixes []netip.Prefix
	lps      []uint32 // r2's misconfigured local-pref, one per cycle
	preroll  int      // untimed cycles that build up history

	pn       *network.PaperNet
	pipe     *hbverify.Pipeline
	policies []verify.Policy
	resolve  ciscolog.Resolver
	done     int // cycles completed
	cnt      map[string]int64

	events     int // I/Os the faults' convergence appended, all round-tripped
	inferCalls int // snapshot.Infer calls, traced run only
	verdicts   int
	walks      int
}

const faultPrefixes = 64

var faultSources = []string{"r1", "r2", "r3"}

// faultCycles solves for the number of timed cycles that fill the section:
// a cycle costs about 52 ms per cycle of history before it on the reference
// box, so n cycles after the 8 of pre-roll cost 52 ms x (8.5 n + n^2/2).
func faultCycles(seconds float64) int {
	return int(-8.5 + math.Sqrt(72.25+38*seconds))
}

func newFaultLoop(cfg Config) (instance, error) {
	w := &faultLoop{cfg: cfg, preroll: 8, cnt: map[string]int64{}}
	cycles := faultCycles(RefSeconds * cfg.scale())
	if cfg.Smoke {
		w.preroll, cycles = 1, 3
	}
	if cycles < 3 {
		cycles = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// P plus 63 /24s drawn from the 512 of 198.18.0.0/15.
	w.prefixes = []netip.Prefix{network.PrefixP}
	for _, k := range rng.Perm(512)[:faultPrefixes-1] {
		w.prefixes = append(w.prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{198, byte(18 + k/256), byte(k % 256), 0}), 24))
	}
	// Any local-pref below r1's 20 sends traffic out through e1.
	for i := 0; i < w.preroll+cycles; i++ {
		w.lps = append(w.lps, uint32(1+rng.Intn(19)))
	}
	return w, nil
}

func (w *faultLoop) schedule() []byte {
	var b bytes.Buffer
	for _, p := range w.prefixes {
		b.WriteString(p.String())
		b.WriteByte(' ')
	}
	for _, lp := range w.lps {
		_ = binary.Write(&b, binary.BigEndian, lp)
	}
	return b.Bytes()
}

func (w *faultLoop) build() error {
	pn, err := network.BuildPaper(w.cfg.Seed, network.DefaultPaperOpts())
	if err != nil {
		return err
	}
	for i, p := range w.prefixes[1:] {
		for _, e := range []struct {
			router string
			host   byte
		}{{"e1", 1}, {"e2", 2}} {
			a := p.Addr().As4()
			a[3] = e.host
			if _, err := pn.Topo.AddStub(e.router, fmt.Sprintf("lan%d", i), netip.AddrFrom4(a), p); err != nil {
				return err
			}
			bgp := pn.Router(e.router).Cfg.BGP
			bgp.Networks = append(bgp.Networks, p)
		}
	}
	pn.Start()
	if err := pn.Run(); err != nil {
		return err
	}
	w.pn = pn
	w.pipe = hbverify.NewPipeline(pn.Network, faultSources)
	w.pipe.External = func(r string) bool { return !pn.Internal(r) }
	for _, p := range w.prefixes {
		w.policies = append(w.policies, verify.Policy{Kind: verify.Egress, Prefix: p, Expect: "e2"})
	}
	w.resolve = func(a netip.Addr) string { return pn.Topo.OwnerOf(a) }
	if rep := w.pipe.Verify(w.policies); !rep.OK() || rep.Checked != len(faultSources)*len(w.policies) {
		return fmt.Errorf("converged network is not clean: %s", rep.Summary())
	}
	for i := 0; i < w.preroll; i++ {
		if _, _, err := w.cycle(nil); err != nil {
			return fmt.Errorf("pre-roll cycle %d: %w", i, err)
		}
	}
	w.cnt["capture.history_events_setup"] = int64(pn.Log.Len())
	return nil
}

func (w *faultLoop) run(rec *recorder) error {
	// Every cycle adds its events to the history the next one re-reads.
	rec.trending = true
	for w.done < len(w.lps) {
		verdict, repaired, err := w.cycle(rec.tr)
		// A cycle whose verdict was right but whose repair was not fails as
		// a whole: the heavy operation contains the primary one.
		rec.check(&rec.op, verdict, err)
		rec.check(&rec.heavy, repaired, err)
		if err == nil {
			rec.units++
		}
	}
	return nil
}

// cycle runs one fault through the loop. verdict is the time from the
// fault to a verdict on an HBG-consistent snapshot, repaired the time until
// the network is verified clean again.
func (w *faultLoop) cycle(tr *tracer) (verdict, repaired time.Duration, err error) {
	lp := w.lps[w.done]
	w.done++
	pn, log := w.pn, w.pn.Log
	start := time.Now()
	tr.beginOp()
	tr.span("cycle", func() {
		mark := log.Len()
		var fault capture.IO
		tr.span("network.converge", func() {
			fault, err = pn.UpdateConfig("r2", fmt.Sprintf("set uplink local-pref %d", lp), func(c *config.Router) {
				c.BGP.Neighbors[len(c.BGP.Neighbors)-1].LocalPref = lp
			})
			if err == nil {
				err = pn.Run()
			}
		})
		if err != nil {
			return
		}
		fresh := log.Snapshot()[mark:]
		if err = w.roundTrip(tr, fresh); err != nil {
			return
		}
		tr.span("hbr.Graph", func() {
			g := w.pipe.Graph()
			w.cnt["hbg.nodes"], w.cnt["hbg.edges"] = int64(g.NodeCount()), int64(g.EdgeCount())
		})

		// r1's log is collected only up to its first new FIB install, before
		// it re-advertises; everyone else's fully. r2 and r3 have received
		// adverts r1 has not yet been seen to send (Fig. 1c), so
		// ConsistentCollect has to extend the cut.
		cut := snapshot.Cut{}
		for _, io := range fresh {
			if io.Router == "r1" && io.Type == capture.FIBInstall {
				cut["r1"] = io.Time
				break
			}
		}
		if len(cut) == 0 {
			err = fmt.Errorf("fault produced no FIB install on r1")
			return
		}
		rep, res := w.verifySnapshot(tr, cut)
		w.verdicts++
		w.walks += rep.Walks
		if want := len(faultSources) * len(w.policies); !res.Consistent || len(rep.Violations) != want {
			err = fmt.Errorf("snapshot verdict: consistent=%v, %d violations, want consistent with %d", res.Consistent, len(rep.Violations), want)
			return
		}
		verdict = time.Since(start)

		var d *repair.Diagnosis
		if tr != nil {
			var d0 *repair.Diagnosis
			tr.span("repair.Detect", func() { d0 = w.pipe.Detect(w.policies) })
			tr.span("hbg.RootCauses", func() { w.pipe.Graph().RootCauses(d0.Fault.ID) })
		}
		tr.span("repair.DetectAndRepair", func() { d, err = w.pipe.DetectAndRepair(w.policies) })
		if err != nil {
			return
		}
		named := false
		for _, root := range d.Roots {
			named = named || root.ID == fault.ID
		}
		if !named || !d.RolledBack || d.RollbackRouter != "r2" {
			err = fmt.Errorf("diagnosis did not name and roll back r2's config change: %s", d)
			return
		}
		tr.span("network.reconverge", func() { err = pn.Run() })
		if err != nil {
			return
		}
		var clean verify.Report
		tr.span("verify.Verify", func() { clean = w.pipe.Verify(w.policies) })
		if !clean.OK() {
			err = fmt.Errorf("after rollback: %s", clean.Summary())
		}
	})
	repaired = time.Since(start)
	w.cnt["capture.history_events"] = int64(log.Len())
	return verdict, repaired, err
}

// roundTrip emits each router's new I/Os as IOS log lines and parses them
// back: what a log-collection deployment would have seen of this fault.
// Text keeps millisecond timestamps and no oracle fields.
func (w *faultLoop) roundTrip(tr *tracer, fresh []capture.IO) error {
	byRouter := map[string][]capture.IO{}
	for _, io := range fresh {
		byRouter[io.Router] = append(byRouter[io.Router], io)
	}
	routers := make([]string, 0, len(byRouter))
	for r := range byRouter {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	logs := make([]bytes.Buffer, len(routers))
	var err error
	tr.span("ciscolog.EmitLog", func() {
		for i, r := range routers {
			if err = ciscolog.EmitLog(&logs[i], byRouter[r]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	parsed := make([][]capture.IO, len(routers))
	tr.span("ciscolog.ParseLog", func() {
		p := ciscolog.NewParser(w.resolve)
		for i, r := range routers {
			if parsed[i], err = p.ParseLog(r, &logs[i]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	for i, r := range routers {
		want := byRouter[r]
		if len(parsed[i]) != len(want) {
			return fmt.Errorf("%s: parsed %d of %d log lines", r, len(parsed[i]), len(want))
		}
		for j, got := range parsed[i] {
			exp := want[j]
			if got.Type != exp.Type || got.Prefix != exp.Prefix || got.NextHop != exp.NextHop ||
				got.PeerAddr != exp.PeerAddr || got.Time != exp.Time/1e6*1e6 ||
				got.Causes != nil || got.TrueTime != 0 {
				return fmt.Errorf("%s line %d: parsed %v, captured %v", r, j, got, exp)
			}
		}
	}
	w.events += len(fresh)
	return nil
}

// verifySnapshot is Pipeline.VerifySnapshot untraced. Traced, it calls the
// public functions VerifySnapshot is composed of, in the same order, with
// a span around each; the caller checks both against the same expectation.
func (w *faultLoop) verifySnapshot(tr *tracer, cut snapshot.Cut) (verify.Report, snapshot.Result) {
	if tr == nil {
		return w.pipe.VerifySnapshot(cut, w.policies)
	}
	infer := func(ios []capture.IO) (g *hbg.Graph) {
		w.inferCalls++
		tr.span("hbr.Infer", func() { g = w.pipe.Strategy.Infer(capture.StripOracle(ios)) })
		return g
	}
	var collected []capture.IO
	var res snapshot.Result
	tr.span("snapshot.ConsistentCollect", func() {
		collected, _, res = snapshot.ConsistentCollect(w.pn.Log.Snapshot(), cut, infer, w.pipe.External)
	})
	var walker *dataplane.Walker
	tr.span("snapshot.BuildFIBs", func() {
		walker = dataplane.NewWalker(w.pn.Topo, dataplane.SnapshotView(snapshot.BuildFIBs(collected)))
	})
	var rep verify.Report
	tr.span("verify.Check", func() {
		c := verify.NewChecker(walker, w.pipe.Sources)
		c.Workers, c.Metrics = w.pipe.Workers, w.pipe.Metrics
		rep = c.Check(w.policies)
	})
	return rep, res
}

func (w *faultLoop) counts() map[string]int64 {
	out := map[string]int64{
		"verify.snapshot_walks": int64(w.walks),
		"hbr.infer_full":        w.pipe.Metrics.Timer("infer.full").Count(),
		"hbr.infer_incremental": w.pipe.Metrics.Timer("infer.incremental").Count(),
	}
	for k, v := range w.cnt {
		out[k] = v
	}
	return out
}

func (w *faultLoop) layers(rec *recorder, m map[string]float64) error {
	tr := rec.tr
	cycles := float64(len(w.lps))
	timed := float64(len(w.lps) - w.preroll)
	p50 := func(span string) float64 { return median(tr.durationsMs(span)) }
	sum := func(span string) (s float64) {
		for _, d := range tr.durationsMs(span) {
			s += d
		}
		return s
	}
	m["network.converge_ms_p50"] = p50("network.converge")
	m["network.events_per_op"] = float64(w.events) / cycles
	m["network.reconverge_ms_p50"] = p50("network.reconverge")
	// The spans cover the timed cycles only; w.events counts pre-roll too.
	timedEvents := float64(w.events) * timed / cycles
	m["ciscolog.emit_ns_per_event"] = sum("ciscolog.EmitLog") * 1e6 / timedEvents
	m["ciscolog.parse_ns_per_event"] = sum("ciscolog.ParseLog") * 1e6 / timedEvents
	m["hbr.infer_ms_p50"] = p50("hbr.Graph")
	m["hbr.infer_full_count"] = float64(w.pipe.Metrics.Timer("infer.full").Count())
	m["hbr.infer_incremental_count"] = float64(w.pipe.Metrics.Timer("infer.incremental").Count())
	m["snapshot.collect_ms_p50"] = p50("snapshot.ConsistentCollect")
	m["snapshot.infer_calls_per_verdict"] = float64(w.inferCalls) / timed
	m["snapshot.buildfibs_ms_p50"] = p50("snapshot.BuildFIBs")
	m["verify.cold_check_ms_p50"] = p50("verify.Check")
	m["verify.walks_per_verdict"] = float64(w.walks) / float64(w.verdicts)
	detect, both := tr.durationsMs("repair.Detect"), tr.durationsMs("repair.DetectAndRepair")
	m["repair.detect_ms_p50"] = median(detect)
	m["hbg.rootcause_ms_p50"] = p50("hbg.RootCauses")
	if len(detect) == len(both) {
		rollback := make([]float64, len(both))
		for i := range both {
			rollback[i] = both[i] - detect[i]
		}
		// The rollback itself is cheaper than Detect's run-to-run variation,
		// so the difference can come out below zero.
		m["repair.rollback_ms_p50"] = math.Max(0, median(rollback))
	}
	m["capture.history_events_final"] = float64(w.pn.Log.Len())
	m["hbg.nodes"], m["hbg.edges"] = float64(w.cnt["hbg.nodes"]), float64(w.cnt["hbg.edges"])
	m["trace.stage_sum_ratio"] = tr.stageSumRatio()
	return nil
}

func (w *faultLoop) close() {
	if w.pipe != nil {
		_ = w.pipe.Close() // no fleet was built; Close has nothing to fail on
	}
}
