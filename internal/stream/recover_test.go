package stream

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hbverify/internal/hbg"
	"hbverify/internal/hbr"
	"hbverify/internal/wire/wiretest"
)

// smallCheckpointFile runs a two-router, two-wave daemon to its end and
// returns the STRMCKP2 file its final compaction wrote.
func smallCheckpointFile(t testing.TB) []byte {
	t.Helper()
	f := Fleet{Routers: 2, Waves: 2, Skew: 30 * time.Millisecond}
	path := filepath.Join(t.TempDir(), "daemon.ckpt")
	d, err := New(Options{Strategy: testStrategy(), SkewSlack: 60 * time.Millisecond, Resolve: f.Resolver(), CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	streams := []*Stream{d.Register(f.RouterName(0)), d.Register(f.RouterName(1))}
	for i, s := range streams {
		go s.Consume(f.Reader(i))
	}
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Envelopes around the two counts hbg's old decoder trusted, and a stream
// position no int holds.
var (
	hugeRetainedCount, hugeRootsCount = hugeCounts()
	hugePosition                      = binary.AppendUvarint(append([]byte(streamMagic), 1, 2, 'r', '0'), 1<<63)
)

// hugeCounts returns the file of a daemon with no streams and an empty
// graph, in the current checkpoint version, with the retained window's
// count — and then one vertex's inherited-root count — raised past what the
// file could hold.
func hugeCounts() (retained, roots []byte) {
	var buf bytes.Buffer
	cold := hbr.NewIncremental(hbr.Rules{}, nil)
	if err := encodeEnvelope(&buf, nil, cold.AppendChannels(nil), &hbg.Checkpoint{}); err != nil {
		panic(err)
	}
	empty := buf.Bytes() // ends in the inherited-root and retained counts, both 0
	retained = binary.AppendUvarint(bytes.Clone(empty[:len(empty)-1]), 1<<62)
	roots = binary.AppendUvarint(append(bytes.Clone(empty[:len(empty)-2]), 1, 7), 1<<40)
	return retained, roots
}

// startFrom writes data where a daemon looks for its checkpoint and starts
// one. A daemon that starts must also answer: its restored log and graph
// are driven once.
func startFrom(t *testing.T, path string, data []byte) (*Daemon, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := New(Options{Strategy: testStrategy(), CheckpointPath: path})
	if (d == nil) == (err == nil) {
		t.Fatalf("New returned daemon %v with error %v", d != nil, err)
	}
	if d != nil {
		if d.Log() == nil || d.recovered == nil {
			t.Fatal("daemon started on half-restored state")
		}
		d.Graph()
	}
	return d, err
}

func TestRecoverCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "daemon.ckpt")
	if d, err := New(Options{CheckpointPath: path}); err != nil || d.Log().TotalAppended() != 0 {
		t.Fatalf("a missing file must start fresh: %v", err)
	}
	valid := smallCheckpointFile(t)
	d, err := startFrom(t, path, valid)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.recovered) != 2 || d.Log().TotalAppended() == 0 {
		t.Fatalf("recovered %d positions, %d events", len(d.recovered), d.Log().TotalAppended())
	}
	for want, data := range map[string][]byte{
		"retained count":       hugeRetainedCount,
		"inherited root count": hugeRootsCount,
		"after its end":        append(bytes.Clone(valid), 0),
	} {
		if _, err := startFrom(t, path, data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want one naming %q", err, want)
		}
	}
	if _, err := startFrom(t, path, hugePosition); err == nil || !strings.Contains(err.Error(), "does not fit an int") {
		t.Errorf("position 1<<63: err = %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := startFrom(t, path, valid[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
		}
	}
	started := 0
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			data := bytes.Clone(valid)
			data[i] ^= 1 << bit
			if d, _ := startFrom(t, path, data); d != nil {
				started++
			}
		}
	}
	t.Logf("%d-byte file: %d of %d bit flips still start a daemon", len(valid), started, 8*len(valid))
}

// recodeEnvelope decodes data and encodes the result again.
func recodeEnvelope(data []byte) ([]byte, error) {
	positions, ch, cp, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = encodeEnvelope(&buf, positions, ch.AppendTo(nil), cp)
	return buf.Bytes(), err
}

// FuzzRecover holds the daemon's recovery to wiretest.CheckDecoder's
// contract on arbitrary file contents, and additionally installs whatever
// decoded into a daemon and drives it once: that must not panic either.
func FuzzRecover(f *testing.F) {
	f.Add(smallCheckpointFile(f))
	f.Add(hugeRetainedCount)
	f.Add(hugeRootsCount)
	f.Add(hugePosition)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		d, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d.recover(data) == nil {
			d.Graph()
		}
		wiretest.CheckDecoder(t, data, recodeEnvelope)
	})
}
