// Command mutate proves that each differential oracle of the scenario
// harness can fail: it plants a known defect in the source, builds
// cmd/replay, and requires the oracle named for that defect to catch it.
//
// Each row below is one defect: the oracle that must catch it, the replay
// arguments of a run that exposes it, and one or more edits, each replacing
// an anchor that occurs exactly once in its file. For every row in turn the
// tool, working in a temporary copy of the repository, applies the edits,
// builds replay, and requires the run to exit 3 with "oracle <name> failed".
// The failing run shrinks its schedule and prints the artifact it wrote;
// that artifact, replayed through -schedule, must exit 3 on the same oracle.
// Then the row's files are restored. Any row not caught so, and any anchor
// that is missing or occurs more than once, is named and the tool exits 1.
//
// Run it from the repository root:
//
//	go run .github/mutate.go          # every row, ≈ 2 min
//	go run .github/mutate.go -check   # only resolve the anchors; builds nothing
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

type edit struct{ file, anchor, replacement string }

type row struct {
	bug, oracle, args string
	edits             []edit
}

var rows = []row{
	// An inference cache frozen at its first result: the incremental layer
	// never notices the log growing.
	{"stale-cache", "incremental-vs-full", "-seed 3", []edit{{"internal/hbr/incremental.go",
		"\tif inc.cached != nil {\n\t\t// Append-only growth of the covered window?\n",
		"\tif inc.cached != nil {\n\t\treturn inc.cached\n\t\t// Append-only growth of the covered window?\n"}}},
	// A repair engine that reports a rollback it never applies: the network
	// does not return to its pre-fault data plane.
	{"skip-rollback", "repair-rollback", "-seed 3", []edit{{"internal/repair/repair.go",
		"\t\tif _, err := n.RollbackConfig(ref.Router, ref.Version-1, root.ID); err != nil {\n\t\t\treturn err\n\t\t}\n",
		""}}},
	// A classifier cut off from its FIB change feed: it keeps its seed, and
	// diverges from a full Compute once churn moves an entry.
	{"stale-eqclass", "eqclass-delta-vs-full", "-seed 3", []edit{{"internal/eqclass/incremental.go",
		"func (inc *Incremental) Note(router string, u fib.Update) {\n",
		"func (inc *Incremental) Note(router string, u fib.Update) {\n\treturn\n"}}},
	// A transport that acks frames it never delivered: every batch bound for
	// the first batch's node comes back with nothing collected, and its walks
	// replay as stuck at their sources.
	{"drop-batch", "dist-vs-central", "-seed 3", []edit{{"internal/dist/dist.go",
		"\t\t\twalks := b.walks\n",
		"\t\t\tif b.src == batches[0].src {\n\t\t\t\tfor _, w := range b.walks {\n\t\t\t\t\tdeliver(f, w.WalkID, w)\n\t\t\t\t}\n\t\t\t\tcontinue\n\t\t\t}\n\t\t\twalks := b.walks\n"}}},
	// A view sync that ships installs only: a node keeps every entry its
	// router removed, and a fleet walk follows a static the central walker
	// no longer sees.
	{"fleet-drops-removes", "dist-vs-central", "-seed 4 -shape ring", []edit{{"internal/dist/fleet.go",
		"\t\t\t} else {\n\t\t\t\td.Removes = append(d.Removes, p)\n\t\t\t}\n",
		"\t\t\t}\n"}}},
	// A channel queue read from the wrong end: a receive pairs with the
	// newest unmatched send, where the reference's scan takes the oldest.
	{"swap-send-match", "infer-fast-vs-reference", "-seed 4", []edit{{"internal/hbr/channels.go",
		"\t\to := q.items[0]\n\t\tq.items = q.items[1:]\n",
		"\t\to := q.items[0]\n\t\tif !send {\n\t\t\to = q.items[len(q.items)-1]\n\t\t\tq.items = q.items[:len(q.items)-1]\n\t\t} else {\n\t\t\tq.items = q.items[1:]\n\t\t}\n"}}},
	// Channel epochs that never advance: the LSA a link failure lost stays
	// queued, and the next receive on that adjacency passes over it — a
	// desync on a log that lost no line.
	{"skip-channel-epoch", "incremental-vs-full", "-seed 2", []edit{{"internal/hbr/channels.go",
		"\t\tc.epochs[side{io.Router, io.Peer, io.Type == capture.SessionDown}]++\n",
		""}}},
	// A compactor that evicts events before folding their edges into the
	// cached graph: the window graph loses what the pruned full inference
	// keeps.
	{"skip-fold", "compaction-vs-full", "-seed 3", []edit{{"internal/hbr/incremental.go",
		"\tg := inc.InferView(win)\n",
		"\tvar g *hbg.Graph\n"}}},
	// A set-walker off by one in its branch loop: the symbolic walk drops the
	// last member of every multi-way ECMP branch, which probe enumeration
	// still finds (every fat-tree edge router is dual-homed).
	{"drop-ecmp-branch", "symbolic-vs-probe", "-seed 3 -shape fattree -mix ospf", []edit{{"internal/dataplane/dataplane.go",
		"\treturn SymbolicWalk(src, dst, MaxHops, func(r string) Expansion {\n\t\treturn w.Expand(r, dst)\n",
		"\treturn SymbolicWalk(src, dst, MaxHops, func(r string) Expansion {\n\t\tex := w.Expand(r, dst)\n\t\tif len(ex.Nexts) > 1 {\n\t\t\tex.Nexts = ex.Nexts[:len(ex.Nexts)-1]\n\t\t}\n\t\treturn ex\n"}}},
	// A dominator pass that folds only the first terminal into the exit:
	// Through lists the routers on the trajectories to that terminal alone.
	{"waypoint-one-terminal", "symbolic-vs-probe", "-seed 1", []edit{{"internal/dataplane/dataplane.go",
		"\t\t\texit = intersect(exit, int32(i))\n",
		"\t\t\tif exit < 0 {\n\t\t\t\texit = int32(i)\n\t\t\t}\n"}}},
	// A hash-consing table whose hash and equality treat the first AS as a
	// wildcard: e1's and e2's single-AS paths for P collapse onto one entry,
	// and a speaker retains a path no wire message carried.
	{"intern-alias", "intern-vs-copy", "-seed 3 -mix ospf+bgp", []edit{
		{"internal/route/intern.go",
			"\tfor _, as := range a.ASPath {\n\t\tmix32(as)\n",
			"\tfor i, as := range a.ASPath {\n\t\tif i == 0 {\n\t\t\tas = 0\n\t\t}\n\t\tmix32(as)\n"},
		{"internal/route/intern.go",
			"\t\tif a.ASPath[i] != b.ASPath[i] {\n",
			"\t\tif i > 0 && a.ASPath[i] != b.ASPath[i] {\n"},
	}},
	// A query engine whose plans stop hearing invalidations: each plan's
	// first walk is pinned forever, and diverges from a fresh batch check
	// once churn moves a queried plan's forwarding.
	{"stale-plan", "serve-vs-batch", "-seed 3", []edit{
		{"internal/serve/serve.go",
			"\twflights map[string]*flight\n",
			"\twflights map[string]*flight\n\tpinned   map[planKey]dataplane.Walk\n"},
		{"internal/serve/serve.go",
			"func (e *Engine) planWalk(k planKey) (dataplane.Walk, planSource, error) {\n",
			`func (e *Engine) planWalk(k planKey) (dataplane.Walk, planSource, error) {
	e.mu.Lock()
	w, ok := e.pinned[k]
	e.mu.Unlock()
	if ok {
		return w, planHit, nil
	}
	w, src, err := e.unpinnedWalk(k)
	e.mu.Lock()
	if _, ok := e.pinned[k]; !ok && err == nil {
		if e.pinned == nil {
			e.pinned = map[planKey]dataplane.Walk{}
		}
		e.pinned[k] = w
	}
	e.mu.Unlock()
	return w, src, err
}

func (e *Engine) unpinnedWalk(k planKey) (dataplane.Walk, planSource, error) {
`},
	}},
	// A local-check mode that certifies what it never checked: every
	// per-router checker is silent while the labels stay in place, so an
	// update-in-flight violation has no local flag to escalate it.
	{"skip-local-check", "localcheck-superset", "-seed 3", []edit{{"internal/localck/localck.go",
		"func (c *Checker) CheckClass(router string, class netip.Prefix, st dataplane.Step) []Violation {\n\tif !c.Enabled() {\n",
		"func (c *Checker) CheckClass(router string, class netip.Prefix, st dataplane.Step) []Violation {\n\tif true {\n"}}},
	// A verifier that takes the first lagged cut as it comes (Fig. 1c): the
	// loop it shows sits in a cut that lacks the send behind a collected
	// receive.
	{"skip-cut-extension", "snapshot-consistency", "-seed 1 -shape ring -rounds 5", []edit{{"internal/scenario/oracle.go",
		"\tfibs := snapshot.BuildFIBs(collected)\n",
		"\tcollected = snapshot.Collect(stripped, cut)\n\tfibs := snapshot.BuildFIBs(collected)\n"}}},
	// A consistency check that examines only the receives in the collected
	// FIB updates' inferred ancestry: the graph's cut stops short of the one
	// message accounting reaches.
	{"fib-ancestry-only", "snapshot-consistency", "-seed 3", []edit{{"internal/snapshot/snapshot.go",
		"\tfor _, io := range g.Refs() {\n",
		"\tvar fibs []uint64\n\tfor _, io := range g.Refs() {\n\t\tif io.Type == capture.FIBInstall || io.Type == capture.FIBRemove {\n\t\t\tfibs = append(fibs, io.ID)\n\t\t}\n\t}\n\tfor _, io := range g.Ancestry(fibs) {\n"}}},
	// A consistency check that lists each open receive as captured: the
	// graph's vertices point at the log's events, so Missing hands out the
	// simulator's ground truth (TrueTime, Causes), and a derived cut's verdict
	// no longer equals the one over a stripped copy of the log.
	{"missing-keeps-oracle", "incremental-vs-full", "-seed 1", []edit{{"internal/snapshot/snapshot.go",
		"\tc.res.Missing = append(c.res.Missing, recv.Stripped())\n",
		"\tc.res.Missing = append(c.res.Missing, *recv)\n"}}},
	// A snapshot frontier that keeps its FIB replay when a cut hides part of
	// it: the lagged cut's snapshot holds entries the cut never collected.
	{"stale-frontier", "snapshot-consistency", "-seed 3", []edit{{"hbverify.go",
		"\tif f.fibs == nil || f.next > v.Len() || f.behind(cut) {\n",
		"\tif f.fibs == nil || f.next > v.Len() {\n"}}},
	// An arena that carves a batch's adjacency lists without capping them:
	// an edge a later batch adds to a vertex overwrites the next vertex's
	// list, and the dripped graph's edges leave the full inference's.
	{"uncapped-carve", "incremental-vs-full", "-seed 3", []edit{{"internal/hbg/hbg.go",
		"\ts := (*a)[:0:n]\n",
		"\ts := (*a)[:0]\n"}}},
}

// What a failing replay prints: its failure, and the artifact it wrote.
var (
	failureLine  = regexp.MustCompile(`oracle .* failed at round .*`)
	artifactLine = regexp.MustCompile(`(?m)^  artifact: (.+)$`)
)

func main() {
	check := flag.Bool("check", false, "only resolve every row's anchors; build and run nothing")
	flag.Parse()
	if bad := resolveAll("."); len(bad) > 0 {
		for _, msg := range bad {
			fmt.Println(msg)
		}
		os.Exit(1)
	}
	if *check {
		fmt.Printf("mutate: all %d rows resolve\n", len(rows))
		return
	}
	if failed := runAll(); len(failed) > 0 {
		fmt.Printf("mutate: not caught as required: %s\n", strings.Join(failed, " "))
		os.Exit(1)
	}
}

// runAll runs every row in a temporary copy of the repository and returns
// the rows not caught as required.
func runAll() []string {
	tmp, err := os.MkdirTemp("", "mutate")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	src, arts := filepath.Join(tmp, "src"), filepath.Join(tmp, "artifacts")
	if err := copyTree(".", src); err != nil {
		fatal(err)
	}
	if err := os.Mkdir(arts, 0o755); err != nil {
		fatal(err)
	}
	var failed []string
	for _, r := range rows {
		report, err := run(r, src, arts)
		if err != nil {
			fmt.Printf("%s: %v\n", r.bug, err)
			failed = append(failed, r.bug)
			continue
		}
		fmt.Printf("caught: %s, and its artifact replays\n  %s\n", r.bug, report)
	}
	return failed
}

// resolveAll applies every row's edits in memory to the files under root and
// returns one message per anchor that does not occur exactly once.
func resolveAll(root string) []string {
	var bad []string
	for _, r := range rows {
		if _, err := mutated(root, r); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", r.bug, err))
		}
	}
	return bad
}

// mutated returns the contents of each file r edits, with r's edits applied
// in order; an anchor must occur exactly once in its file as edited so far.
func mutated(root string, r row) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, e := range r.edits {
		data, ok := out[e.file]
		if !ok {
			var err error
			if data, err = os.ReadFile(filepath.Join(root, e.file)); err != nil {
				return nil, err
			}
		}
		if n := bytes.Count(data, []byte(e.anchor)); n != 1 {
			return nil, fmt.Errorf("anchor %q occurs %d times in %s, want 1", e.anchor, n, e.file)
		}
		out[e.file] = bytes.Replace(data, []byte(e.anchor), []byte(e.replacement), 1)
	}
	return out, nil
}

// run plants r in the copy at src, builds replay, requires the run and the
// replay of its artifact to fail r's oracle, and restores the files. It
// returns the run's failure line.
func run(r row, src, arts string) (string, error) {
	files, err := mutated(src, r)
	if err != nil {
		return "", err
	}
	defer restore(src, files)
	for f, data := range files {
		if err := os.WriteFile(filepath.Join(src, f), data, 0o644); err != nil {
			return "", err
		}
	}
	bin := filepath.Join(arts, "replay")
	build := exec.Command("go", "build", "-o", bin, "./cmd/replay")
	build.Dir = src
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build: %v\n%s", err, out)
	}
	out, err := caught(r.oracle, arts, bin, strings.Fields(r.args)...)
	if err != nil {
		return "", err
	}
	m := artifactLine.FindSubmatch(out)
	if m == nil {
		return "", fmt.Errorf("the failing run printed no artifact:\n%s", out)
	}
	if _, err := caught(r.oracle, arts, bin, "-schedule", string(m[1])); err != nil {
		return "", fmt.Errorf("artifact %s: %v", m[1], err)
	}
	return failureLine.FindString(string(out)), nil
}

// restore puts the repository's own copy of each file back into src: a row
// left planted would be measured by every row after it.
func restore(src string, files map[string][]byte) {
	for f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = os.WriteFile(filepath.Join(src, f), data, 0o644)
		}
		if err != nil {
			fatal(fmt.Errorf("restore %s: %w", f, err))
		}
	}
}

// caught runs bin with args, writing artifacts to arts, and returns its
// output if it exited 3 naming oracle as failed.
func caught(oracle, arts, bin string, args ...string) ([]byte, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+arts)
	out, err := cmd.CombinedOutput()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		return nil, err
	}
	if code != 3 || !bytes.Contains(out, []byte("oracle "+oracle+" failed")) {
		return nil, fmt.Errorf("replay %s: exit %d, want 3 from oracle %s:\n%s", strings.Join(args, " "), code, oracle, out)
	}
	return out, nil
}

// copyTree copies the regular files under from, .git aside, to to.
func copyTree(from, to string) error {
	return filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		target := filepath.Join(to, path)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutate:", err)
	os.Exit(2)
}
