package capture

import (
	"net/netip"
	"sort"
	"testing"
	"time"

	"hbverify/internal/netsim"
	"hbverify/internal/route"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// IsOutput reports whether t is an output of the control plane.
func (t Type) IsOutput() bool {
	switch t {
	case SendAdvert, SendWithdraw, RIBInstall, RIBRemove, FIBInstall, FIBRemove:
		return true
	}
	return false
}

func TestTypeClassification(t *testing.T) {
	inputs := []Type{ConfigChange, LinkUp, LinkDown, RecvAdvert, RecvWithdraw, SoftReconfig, SessionDown}
	outputs := []Type{SendAdvert, SendWithdraw, RIBInstall, RIBRemove, FIBInstall, FIBRemove}
	for _, ty := range inputs {
		if ty.IsOutput() {
			t.Fatalf("%v misclassified", ty)
		}
	}
	for _, ty := range outputs {
		if !ty.IsOutput() {
			t.Fatalf("%v misclassified", ty)
		}
	}
}

func TestTypeNamesRoundTrip(t *testing.T) {
	seen := map[string]Type{}
	for ty := ConfigChange; ty <= SessionDown; ty++ {
		if prev, dup := seen[ty.String()]; dup || ty.String() == "" {
			t.Fatalf("%v and %v share the name %q", prev, ty, ty.String())
		}
		seen[ty.String()] = ty
	}
	if Type(200).String() != "io(200)" {
		t.Fatal("out-of-range name")
	}
}

func TestIOStringStyles(t *testing.T) {
	cases := []struct {
		io   IO
		want string
	}{
		{IO{Router: "r2", Type: ConfigChange, Detail: "lp=10"}, "[r2 config change: lp=10]"},
		{IO{Router: "r2", Type: SoftReconfig}, "[r2 soft reconfiguration]"},
		{IO{Router: "r1", Type: RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx("10.0.0.0/8"), Peer: "r2"},
			"[r1 recv-advert bgp 10.0.0.0/8 from r2]"},
		{IO{Router: "r2", Type: SendWithdraw, Proto: route.ProtoBGP, Prefix: pfx("10.0.0.0/8"), Peer: "r3"},
			"[r2 send-withdraw bgp 10.0.0.0/8 to r3]"},
		{IO{Router: "r2", Type: RIBInstall, Proto: route.ProtoBGP, Prefix: pfx("10.0.0.0/8")},
			"[r2 rib-install bgp 10.0.0.0/8 via direct]"},
		{IO{Router: "r2", Type: FIBInstall, Prefix: pfx("10.0.0.0/8"), NextHop: netip.MustParseAddr("192.0.2.1")},
			"[r2 fib-install 10.0.0.0/8 via 192.0.2.1]"},
		{IO{Router: "r2", Type: LinkDown, Detail: "eth0"}, "[r2 link-down eth0]"},
		{IO{Router: "r2", Type: SessionDown, Proto: route.ProtoBGP, Peer: "r3"}, "[r2 session-down r3]"},
	}
	for _, c := range cases {
		if got := c.io.String(); got != c.want {
			t.Fatalf("String = %q, want %q", got, c.want)
		}
	}
}

func TestRecorderAssignsIDsAndTimes(t *testing.T) {
	s := netsim.NewScheduler(1)
	log := NewLog()
	rec := NewRecorder(log, "r1", s, nil)
	var first, second IO
	s.At(netsim.Duration(5*time.Millisecond), func() {
		first = rec.Record(IO{Type: RecvAdvert, Proto: route.ProtoBGP, Prefix: pfx("10.0.0.0/8")})
	})
	s.At(netsim.Duration(9*time.Millisecond), func() {
		second = rec.Record(IO{Type: RIBInstall, Proto: route.ProtoBGP, Prefix: pfx("10.0.0.0/8")})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if first.ID != 1 || second.ID != 2 {
		t.Fatalf("IDs = %d,%d", first.ID, second.ID)
	}
	if first.Router != "r1" {
		t.Fatalf("router = %q", first.Router)
	}
	if first.TrueTime != netsim.Duration(5*time.Millisecond) || first.Time != first.TrueTime {
		t.Fatalf("times = %v %v", first.Time, first.TrueTime)
	}
	if log.Len() != 2 {
		t.Fatalf("log len = %d", log.Len())
	}
}

func TestRecorderClockSkew(t *testing.T) {
	s := netsim.NewScheduler(1)
	log := NewLog()
	clock := netsim.NewClockModel(2*time.Second, 0, 1)
	rec := NewRecorder(log, "r1", s, clock)
	var io IO
	s.At(0, func() { io = rec.Record(IO{Type: ConfigChange}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if io.TrueTime != 0 {
		t.Fatalf("TrueTime = %v", io.TrueTime)
	}
	if io.Time != netsim.Duration(2*time.Second) {
		t.Fatalf("observed time = %v", io.Time)
	}
}

// byID looks an I/O up by ID; compacted-away and future IDs report false.
func byID(l *Log, id uint64) (IO, bool) {
	got := l.Filter(func(io IO) bool { return io.ID == id })
	if len(got) != 1 {
		return IO{}, false
	}
	return got[0], true
}

func TestLogQueries(t *testing.T) {
	s := netsim.NewScheduler(1)
	log := NewLog()
	r1 := NewRecorder(log, "r1", s, nil)
	r2 := NewRecorder(log, "r2", s, nil)
	s.At(0, func() {
		r1.Record(IO{Type: RecvAdvert, Prefix: pfx("10.0.0.0/8")})
		r2.Record(IO{Type: RecvAdvert, Prefix: pfx("10.0.0.0/8")})
		r2.Record(IO{Type: RIBInstall, Prefix: pfx("20.0.0.0/8")})
	})
	_ = s.Run()
	if got := log.ForRouter("r2"); len(got) != 2 {
		t.Fatalf("ForRouter = %d", len(got))
	}
	if got := log.Filter(func(io IO) bool { return io.Prefix == pfx("10.0.0.0/8") }); len(got) != 2 {
		t.Fatalf("Filter by prefix = %d", len(got))
	}
	if io, ok := byID(log, 3); !ok || io.Prefix != pfx("20.0.0.0/8") {
		t.Fatalf("ByID = %+v %v", io, ok)
	}
	if _, ok := byID(log, 0); ok {
		t.Fatal("ID 0 resolved")
	}
	if _, ok := byID(log, 99); ok {
		t.Fatal("future ID resolved")
	}
}

func TestObservedOrderUsesSkewedClocks(t *testing.T) {
	s := netsim.NewScheduler(1)
	log := NewLog()
	// r1's clock runs 10s fast, so its earlier event sorts later.
	fast := NewRecorder(log, "r1", s, netsim.NewClockModel(10*time.Second, 0, 1))
	slow := NewRecorder(log, "r2", s, nil)
	s.At(0, func() { fast.Record(IO{Type: ConfigChange, Detail: "early but fast clock"}) })
	s.At(netsim.Duration(time.Second), func() { slow.Record(IO{Type: ConfigChange, Detail: "late"}) })
	_ = s.Run()
	obs := observedOrder(log.Snapshot())
	if obs[0].Router != "r2" || obs[1].Router != "r1" {
		t.Fatalf("observed order = %v,%v", obs[0].Router, obs[1].Router)
	}
	all := log.Snapshot()
	if all[0].Router != "r1" {
		t.Fatal("append order must stay true-time ordered")
	}
}

func TestStripOracle(t *testing.T) {
	ios := []IO{{ID: 1, Causes: []uint64{9}, TrueTime: 55, Time: 60}}
	out := StripOracle(ios)
	if out[0].Causes != nil || out[0].TrueTime != 0 || out[0].Time != 60 {
		t.Fatalf("strip = %+v", out[0])
	}
	if ios[0].Causes == nil {
		t.Fatal("original mutated")
	}
}

// TestSnapshotSharedAndStable: a view shares the log's events and keeps
// reading the same ones after later appends; a snapshot is a private copy.
func TestSnapshotSharedAndStable(t *testing.T) {
	log := NewLog()
	log.AppendBatch([]IO{{Type: ConfigChange}, {Type: SoftReconfig}})
	v, snap := log.View(), log.Snapshot()
	if len(snap) != 2 || snap[0].ID != 1 || snap[1].ID != 2 || v.Len() != 2 || v.At(1).ID != 2 {
		t.Fatalf("snapshot = %+v, view of %d", snap, v.Len())
	}
	if v.At(0) != log.View().At(0) {
		t.Fatal("two views of one window hold different copies of its first event")
	}
	if &snap[0] == v.At(0) {
		t.Fatal("Snapshot shares the log's storage")
	}
	log.AppendBatch([]IO{{Type: LinkUp}})
	if v.Len() != 2 || len(snap) != 2 {
		t.Fatalf("earlier view/snapshot grew: %d / %d", v.Len(), len(snap))
	}
	if got := log.View(); got.Len() != 3 || got.At(2).ID != 3 || got.At(0) != v.At(0) {
		t.Fatalf("second view: len %d, event 3 has ID %d", got.Len(), got.At(2).ID)
	}
}

func TestAppendBatch(t *testing.T) {
	log := NewLog()
	rec := NewRecorder(log, "r1", netsim.NewScheduler(1), nil)
	rec.Record(IO{Type: ConfigChange})
	stored := log.AppendBatch([]IO{
		{Router: "r2", Type: RecvAdvert, Prefix: pfx("10.0.0.0/8")},
		{Router: "r2", Type: RIBInstall, Prefix: pfx("10.0.0.0/8")},
	})
	if stored.Len() != 2 || stored.At(0).ID != 2 || stored.At(1).ID != 3 {
		t.Fatalf("batch IDs = %+v", stored.Flatten())
	}
	if log.Len() != 3 {
		t.Fatalf("Len = %d", log.Len())
	}
	if got := log.AppendBatch(nil); got.Len() != 0 {
		t.Fatalf("empty batch returned %d events", got.Len())
	}
	if io, ok := byID(log, 3); !ok || io.Type != RIBInstall {
		t.Fatalf("ByID(3) = %+v %v", io, ok)
	}
}

func TestFilterRightSized(t *testing.T) {
	log := NewLog()
	var batch []IO
	for i := 0; i < 100; i++ {
		ty := RecvAdvert
		if i%10 == 0 {
			ty = ConfigChange
		}
		batch = append(batch, IO{Type: ty})
	}
	log.AppendBatch(batch)
	got := log.Filter(func(io IO) bool { return io.Type == ConfigChange })
	if len(got) != 10 || cap(got) != 10 {
		t.Fatalf("Filter len=%d cap=%d, want exactly 10", len(got), cap(got))
	}
	if none := log.Filter(func(IO) bool { return false }); none != nil {
		t.Fatalf("empty filter = %v", none)
	}
}

// observedOrder sorts ios in collector order — observed time, then ID — the
// order an inference engine working from collected router logs would see.
func observedOrder(ios []IO) []IO {
	sort.SliceStable(ios, func(i, j int) bool {
		if ios[i].Time != ios[j].Time {
			return ios[i].Time < ios[j].Time
		}
		return ios[i].ID < ios[j].ID
	})
	return ios
}

// TestObservedOrderOfPrivateSnapshots: sorting a snapshot into observed
// order reorders that copy alone — not the log, not an earlier snapshot.
func TestObservedOrderOfPrivateSnapshots(t *testing.T) {
	log := NewLog()
	log.AppendBatch([]IO{{Type: ConfigChange, Time: 20}, {Type: LinkUp, Time: 10}})
	a := observedOrder(log.Snapshot())
	if a[0].Time != 10 || a[1].Time != 20 {
		t.Fatalf("observed order = %+v", a)
	}
	if v := log.View(); v.At(0).Time != 20 || v.At(1).Time != 10 {
		t.Fatal("sorting a snapshot reordered the log")
	}
	log.AppendBatch([]IO{{Type: LinkDown, Time: 5}})
	c := observedOrder(log.Snapshot())
	if len(c) != 3 || c[0].Time != 5 {
		t.Fatalf("post-append observed order = %+v", c)
	}
	if len(a) != 2 || a[0].Time != 10 {
		t.Fatal("old observed order mutated")
	}
}
