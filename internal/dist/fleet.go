// The fleet: a verification node per router of one network, and its own
// endpoint, over which it syncs their views, seeds walks and collects
// results. A round syncs the routers changed since the last round and runs
// the caller's checker over the nodes.

package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hbverify/internal/dataplane"
	"hbverify/internal/fib"
	"hbverify/internal/localck"
	"hbverify/internal/metrics"
	"hbverify/internal/network"
	"hbverify/internal/route"
	"hbverify/internal/verify"
	"hbverify/internal/wire"
)

// syncTimeout is how long a sync waits for the fleet to acknowledge its
// view deltas. walkTimeout bounds one ExecuteWalks call: a walk that cannot
// be submitted or forwarded comes back with its error at once, and the
// deadline is the backstop for a result lost after that.
const (
	syncTimeout = 5 * time.Second
	walkTimeout = 5 * time.Second
)

// localRelabelEvery bounds how many local-check rounds run between full
// walk rounds: VerifyLocal walks everything and re-derives the distance
// labels on its first round and whenever the counter reaches it.
const localRelabelEvery = 16

// Fleet is §5's distributed verifier over one network: a node per router,
// each holding that router's view. The fleet keeps no copy of any view: it
// is told what changed (Note, NoteLinks), and a round reads the noted
// entries and interfaces from the live network and ships them. Verify and
// VerifyLocal are its rounds. Its own endpoint receives the nodes' walk
// results and check reports, each routed by ID to the call waiting on it.
type Fleet struct {
	endpoint
	net     *network.Network
	metrics *metrics.Registry

	mu sync.Mutex
	// nodes has a node per router. NewFleet fills it under mu, which the
	// nodes' directory takes because nodes serve walks on their own
	// goroutines; once NewFleet has returned it is only read.
	nodes map[string]*Node
	// noted holds, per router, what changed since a round last took it:
	// the prefixes of its FIB updates, and the zero prefix, which no entry
	// has, when a link of its flipped.
	noted  map[string]map[netip.Prefix]struct{}
	rounds int // local-check rounds since the last relabel
	// nextID numbers walks and view deltas alike; waiting holds, by ID, the
	// reply channel of each request still out (a chan<- WalkMsg or a
	// chan<- LocalReport).
	nextID  int
	waiting map[int]any
	// The label set last pushed to the nodes, and the classes local
	// violations have tainted since (taintAll: every class).
	labels   *localck.LabelSet
	taint    map[netip.Prefix]bool
	taintAll bool
}

// NewFleet starts the fleet's endpoint and a node per router of n, each
// with the router's current view. reg receives the rounds' dist.* counters
// and per-node latency timers; nil discards them.
func NewFleet(n *network.Network, reg *metrics.Registry) (*Fleet, error) {
	f := &Fleet{
		net: n, metrics: reg, nodes: map[string]*Node{}, noted: map[string]map[netip.Prefix]struct{}{},
		waiting: map[int]any{}, taint: map[netip.Prefix]bool{},
	}
	if err := f.listen(f.handle); err != nil {
		return nil, err
	}
	directory := func(router string) (string, bool) {
		if nd := f.Node(router); nd != nil {
			return nd.Addr(), true
		}
		return "", false
	}
	for _, r := range n.Routers() {
		node, err := startNode(LocalViewOf(r), directory, f.Addr())
		if err != nil {
			f.Close()
			return nil, err
		}
		f.mu.Lock()
		f.nodes[r.Name] = node
		f.mu.Unlock()
	}
	return f, nil
}

// Close stops the fleet's endpoint, failing every wait at once, then the
// nodes.
func (f *Fleet) Close() error {
	errs := []error{f.endpoint.Close()}
	for _, nd := range f.nodes {
		errs = append(errs, nd.Close())
	}
	return errors.Join(errs...)
}

// handle receives the nodes' replies: walk results and check reports.
func (f *Fleet) handle(mt byte, r *wire.Reader) {
	switch mt {
	case mtResultBatch:
		_, walks := readWalkBatch(r)
		if r.Err() != nil {
			return
		}
		for _, w := range walks {
			deliver(f, w.WalkID, w)
		}
	case mtLocalViolation:
		rep := readLocalReport(r)
		if r.Err() == nil {
			deliver(f, rep.Sync, rep)
		}
	}
}

// expect numbers a request whose reply goes to ch. The caller holds f.mu
// and sends the request after registering it.
func expect[T any](f *Fleet, ch chan<- T) int {
	f.nextID++
	f.waiting[f.nextID] = ch
	return f.nextID
}

// deliver routes one reply to the call waiting on its ID. A reply nobody
// waits for (a duplicate, a reply after its deadline reclaimed the request,
// or one of another kind than the request's) is dropped.
func deliver[T any](f *Fleet, id int, v T) {
	f.mu.Lock()
	ch, ok := f.waiting[id].(chan<- T)
	if ok {
		delete(f.waiting, id)
	}
	f.mu.Unlock()
	if ok {
		ch <- v // buffered to the caller's request count; never blocks
	}
}

// wait collects from ch the replies to the requests in out (ID -> the
// caller's index), handing each to take with its index, until all have
// come, timeout passes or the fleet closes. It then reclaims the requests
// still out, so a late reply is dropped; they stay in out, and wait says
// when they lapsed: "after" the timeout or "when the fleet closed".
func wait[T any](f *Fleet, ch <-chan T, out map[int]int, id func(T) int, timeout time.Duration, take func(i int, v T)) string {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	why := "after " + timeout.String()
collect:
	for len(out) > 0 {
		select {
		case v := <-ch:
			k := id(v)
			i := out[k]
			delete(out, k)
			take(i, v)
		case <-deadline.C:
			break collect
		case <-f.closing:
			why = "when the fleet closed"
			break collect
		}
	}
	f.mu.Lock()
	for k := range out {
		delete(f.waiting, k)
	}
	f.mu.Unlock()
	return why
}

// Node returns router's node, or nil when the fleet has none.
func (f *Fleet) Node(router string) *Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[router]
}

// Note queues the prefix of one of router's FIB updates: the next round
// ships the entry router's table holds for it then, or its removal. A
// prefix noted while a round runs is shipped by the round after it.
func (f *Fleet) Note(router string, u fib.Update) { f.note(router, u.Entry.Prefix) }

// NoteLinks records that a link of router's flipped: the next round ships
// its interfaces.
func (f *Fleet) NoteLinks(router string) { f.note(router, netip.Prefix{}) }

func (f *Fleet) note(router string, p netip.Prefix) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.noted[router] == nil {
		f.noted[router] = map[netip.Prefix]struct{}{}
	}
	f.noted[router][p] = struct{}{}
}

// Wire sums the transport counters, frames and bytes written, over the
// fleet's endpoint and every node. A round reports their delta around the call;
// concurrent rounds overlap in their deltas, but the totals stay exact.
func (f *Fleet) Wire() (frames, bytes int64) {
	frames, bytes, _, _ = f.endpoint.Wire()
	for _, n := range f.nodes {
		fr, b, _, _ := n.Wire()
		frames += fr
		bytes += b
	}
	return frames, bytes
}

// Verify is one distributed round: it ships the noted changes and runs a copy of ck over the fleet. The checker decides which walks the
// policies need (its sources, class sharding, cache and any certificate it
// carries all apply) and the fleet executes them. Checks whose walk failed
// are reported as an error, never as a verdict.
func (f *Fleet) Verify(ck *verify.Checker, policies []verify.Policy) (Stats, error) {
	return f.round(ck, policies, false)
}

// VerifyLocal is one round of the hybrid local-check loop. The sync lets
// each noted router's node validate its new state against its label slice, and the
// checker gets the fleet's certificate as it stands after the nodes'
// reports, so a quiet check is answered without a walk. The first round,
// and every localRelabelEvery-th, runs without the certificate and then
// re-derives the labels from the state it walked.
func (f *Fleet) VerifyLocal(ck *verify.Checker, policies []verify.Policy) (Stats, error) {
	return f.round(ck, policies, true)
}

// round is Verify and VerifyLocal. It takes the notes, leaving none
// behind, and puts them back if the round fails, so the next round reads
// a failed round's routers again.
func (f *Fleet) round(base *verify.Checker, policies []verify.Policy, local bool) (stats Stats, err error) {
	f.mu.Lock()
	taken, rounds := f.noted, f.rounds
	f.noted = map[string]map[netip.Prefix]struct{}{}
	f.mu.Unlock()
	defer func() {
		if err != nil {
			for r, noted := range taken {
				for p := range noted {
					f.note(r, p)
				}
			}
		}
	}()
	relabel := local && (rounds >= localRelabelEvery || f.labelEpoch() == 0)

	f0, b0 := f.Wire()
	if err := f.sync(f.deltas(taken)); err != nil {
		return Stats{}, err
	}
	ex := f.executor()
	ck := *base
	ck.Executor = ex
	if local && !relabel {
		ck.Certified = f.certificate()
	}
	rep := ck.Check(policies)
	stats = Stats{
		Report: rep, Walks: rep.Checked + rep.Errors,
		Messages: int(ex.messages.Load()), Batches: int(ex.batches.Load()),
	}
	f.mu.Lock()
	stats.LocalViolations = len(f.taint)
	f.mu.Unlock()
	if ck.Certified != nil {
		stats.LocalCertified = rep.Certified
		stats.Escalated = stats.Walks - rep.Certified
	}
	if rep.Errors > 0 {
		err = fmt.Errorf("dist: %d of %d checks have no verdict: their walks failed", rep.Errors, stats.Walks)
	} else if relabel {
		if err = f.relabel(classesOf(policies)); err == nil {
			stats.Relabeled = true
		}
	}
	f1, b1 := f.Wire()
	stats.Frames, stats.Bytes = int(f1-f0), int(b1-b0)
	if m := f.metrics; m != nil {
		m.Counter("dist.walks").Add(int64(rep.Walks))
		m.Counter("dist.messages").Add(int64(stats.Messages))
		m.Counter("dist.frames").Add(int64(stats.Frames))
		m.Counter("dist.bytes").Add(int64(stats.Bytes))
		m.Counter("dist.batches").Add(int64(stats.Batches))
		m.Counter("dist.errors").Add(int64(rep.Errors))
		m.Counter("dist.walks.local_certified").Add(int64(stats.LocalCertified))
		m.Counter("dist.walks.escalated").Add(int64(stats.Escalated))
	}
	if err == nil && local {
		f.mu.Lock()
		if relabel {
			f.rounds = 1
		} else {
			f.rounds++
		}
		f.mu.Unlock()
	}
	return stats, err
}

// classesOf returns the policies' prefixes, each once, sorted by String():
// the order labels are derived in.
func classesOf(policies []verify.Policy) []netip.Prefix {
	classes := make([]netip.Prefix, len(policies))
	for i, pol := range policies {
		classes[i] = pol.Prefix
	}
	slices.SortFunc(classes, func(a, b netip.Prefix) int { return strings.Compare(a.String(), b.String()) })
	return slices.Compact(classes)
}

// deltas reads each noted router's live state into the view delta the
// round ships it, in router order: for each noted prefix, in prefix order,
// the entry the router's table holds, or the prefix's removal when it holds
// none; and the interfaces when a link flipped.
func (f *Fleet) deltas(taken map[string]map[netip.Prefix]struct{}) []viewDelta {
	routers := make([]string, 0, len(taken))
	for r := range taken {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	var out []viewDelta
	for _, r := range routers {
		rt := f.net.Router(r)
		if rt == nil {
			continue
		}
		prefixes := make([]netip.Prefix, 0, len(taken[r]))
		for p := range taken[r] {
			prefixes = append(prefixes, p)
		}
		slices.SortFunc(prefixes, route.ComparePrefix)
		d := viewDelta{Router: r}
		for _, p := range prefixes {
			if !p.IsValid() {
				d.HasIface, d.Ifaces = true, dataplane.IfacesOf(rt.Topo)
			} else if e, ok := rt.FIB.Exact(p); ok {
				d.Installs = append(d.Installs, e)
			} else {
				d.Removes = append(d.Removes, p)
			}
		}
		if len(d.Installs) > 0 || len(d.Removes) > 0 || d.HasIface {
			out = append(out, d)
		}
	}
	return out
}

// sync ships each delta to its router's node as a binary frame and waits
// for every node to acknowledge. Each node applies its delta, validates
// the new state against its label slice, and answers with a check report
// — the acknowledgement that makes it safe to start walks: a walk
// dispatched after sync returns cannot reach a node before its delta did.
// Violations taint their classes in the fleet until the next relabel,
// and so does a report at another label epoch, for every class. A delta
// that could not be sent, or that no node acknowledged within syncTimeout
// or before the fleet closed, is an error: the fleet's state is then
// unknown and the round must not produce a verdict.
func (f *Fleet) sync(deltas []viewDelta) error {
	// Sized to the worst case so deliver never blocks; each delta is
	// registered before its frame is sent.
	ch := make(chan LocalReport, len(deltas))
	out := make(map[int]int, len(deltas)) // sync ID -> delta index
	var firstErr error
	for i := range deltas {
		d := &deltas[i]
		f.mu.Lock()
		d.Sync = expect(f, ch)
		f.mu.Unlock()
		if _, err := f.pool.send(f.Node(d.Router).Addr(), func(b []byte) []byte {
			return appendViewDelta(b, d)
		}); err != nil {
			f.mu.Lock()
			delete(f.waiting, d.Sync)
			f.mu.Unlock()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[d.Sync] = i
	}

	epoch, sent := f.labelEpoch(), len(out)
	why := wait(f, ch, out, func(rep LocalReport) int { return rep.Sync }, syncTimeout, func(_ int, rep LocalReport) {
		f.mu.Lock()
		for _, v := range rep.Violations {
			f.taint[v.Prefix] = true
		}
		if rep.Epoch != epoch || epoch == 0 {
			f.taintAll = true
		}
		f.mu.Unlock()
	})
	if len(out) > 0 || firstErr != nil {
		f.mu.Lock()
		f.taintAll = true
		f.mu.Unlock()
	}
	if firstErr == nil && len(out) > 0 {
		firstErr = fmt.Errorf("dist: %d of %d view deltas unacknowledged %s", len(out), sent, why)
	}
	return firstErr
}

// CentralizedBytes estimates the wire cost of the centralized alternative:
// shipping every router's full FIB (as JSON) to one verifier.
func CentralizedBytes(n *network.Network) (int, error) {
	total := 0
	for _, r := range n.Routers() {
		var entries []fib.Entry
		r.FIB.Snapshot().Walk(func(_ netip.Prefix, e fib.Entry) bool {
			entries = append(entries, e)
			return true
		})
		b, err := json.Marshal(entries)
		if err != nil {
			return 0, err
		}
		total += len(b) + 4
	}
	return total, nil
}
