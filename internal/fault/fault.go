// Package fault is the one switchboard for the defects the scenario harness
// injects to prove its oracles can fail. Each Bug is checked by On at the one
// place it applies, and Inject is the only way to turn one on; with none
// injected, On is an atomic load and a nil check.
package fault

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Bug names one injectable defect.
type Bug string

// The injectable defects.
const (
	// StaleCache freezes the inference cache at its first result, as if the
	// incremental layer never noticed the log growing.
	StaleCache Bug = "stale-cache"
	// SkipRollback detects the violation but silently skips applying the
	// repair rollback, as a repair engine that reports success without
	// acting would.
	SkipRollback Bug = "skip-rollback"
	// StaleEqclass disconnects the incremental equivalence classifier from
	// its FIB change feed: it keeps its seed and never hears an update — the
	// failure mode of a delta pipeline whose change feed silently drops.
	StaleEqclass Bug = "stale-eqclass"
	// DropBatch makes the distributed coordinator silently lose every walk
	// batch bound for the first batch's source node while still reporting
	// the round as complete — the failure mode of a transport that acks
	// frames it never delivered.
	DropBatch Bug = "drop-batch"
	// SwapSendMatch pairs a receive with the newest unmatched send on its
	// channel instead of the oldest — a queue read from the wrong end.
	SwapSendMatch Bug = "swap-send-match"
	// SkipChannelEpoch never advances a channel's epoch, so a message a
	// failure lost stays queued beside the ones sent after it: the next
	// message of the other side passes over it, a desync on a log that lost
	// no line, or takes it when it repeats the lost one's key.
	SkipChannelEpoch Bug = "skip-channel-epoch"
	// SkipFold makes hbr.Incremental.Compact evict capture events without
	// first folding their inferred edges into the cached graph — the failure
	// mode of a compactor that trims the log before the inference tick that
	// would have covered it.
	SkipFold Bug = "skip-fold"
	// DropEcmpBranch makes symbolic exploration silently ignore the last
	// member of every multi-way ECMP branch — the failure mode of a
	// set-walker whose branch iteration is off by one. Concrete probe walks
	// are unaffected, so the symbolic-vs-probe oracle must catch the missing
	// branch.
	DropEcmpBranch Bug = "drop-ecmp-branch"
	// InternAlias makes the BGP attribute interner treat the first AS in the
	// path as a wildcard when hashing and comparing, so distinct attribute
	// sets collapse onto one canonical entry — the failure mode of a
	// hash-consing table whose equality check drifts from its hash.
	InternAlias Bug = "intern-alias"
	// StalePlan makes the query engine pin each plan's first walk forever,
	// ignoring cache invalidation — the failure mode of a plan cache whose
	// churn feed disconnects while the batch path stays healthy.
	StalePlan Bug = "stale-plan"
	// SkipLocalCheck silences every per-router local invariant check while
	// the distance labels stay in place — the failure mode of a local-check
	// mode that certifies updates it never validated. A silenced checker
	// leaves a central violation on an update-in-flight snapshot with no
	// local flag to escalate it.
	SkipLocalCheck Bug = "skip-local-check"
	// SkipCutExtension verifies a lagged collection cut as first collected,
	// unextended — a verifier that does not wait for the routers it should
	// (Fig. 1c).
	SkipCutExtension Bug = "skip-cut-extension"
	// FIBAncestryOnly makes snapshot.Check examine only the receives in some
	// collected FIB update's inferred ancestry, as the condition was first
	// checked: a receive whose send the cut lacks has no inferred parent, and
	// when inference does not tie its install to a FIB update either, the
	// cut is called closed while it is open.
	FIBAncestryOnly Bug = "fib-ancestry-only"
	// StaleFrontier makes Pipeline.VerifySnapshot replay from its FIB
	// checkpoint even when the cut hides an event the checkpoint holds — a
	// frontier that forgets a cut can reach behind it, and verifies a
	// snapshot with entries the cut never collected.
	StaleFrontier Bug = "stale-frontier"
)

// Bugs lists every injectable defect.
var Bugs = []Bug{StaleCache, SkipRollback, StaleEqclass, DropBatch, SwapSendMatch, SkipChannelEpoch,
	SkipFold, DropEcmpBranch, InternAlias, StalePlan, SkipLocalCheck, SkipCutExtension,
	FIBAncestryOnly, StaleFrontier}

// Known reports whether b names an injectable defect.
func Known(b Bug) bool { return slices.Contains(Bugs, b) }

var active atomic.Pointer[Bug]

// Inject turns b on — the empty name turns every defect off — until restore
// is called, which puts back what was on before. It panics on an unknown
// name: callers taking names from outside check them with Known.
func Inject(b Bug) (restore func()) {
	var next *Bug
	if b != "" {
		if !Known(b) {
			panic(fmt.Sprintf("fault: unknown bug %q", b))
		}
		next = &b
	}
	prev := active.Swap(next)
	return func() { active.Store(prev) }
}

// On reports whether b is the injected defect.
func On(b Bug) bool {
	p := active.Load()
	return p != nil && *p == b
}
