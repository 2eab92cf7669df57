package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// goldenFrames renders payloads in the on-disk framing, spelled out by hand
// rather than through Frame: uint32 payload length, uint32 CRC32-IEEE of the
// payload, both little endian, then the payload bytes.
func goldenFrames(payloads ...string) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE([]byte(p)))
		out = append(out, p...)
	}
	return out
}

// TestFrameBytesGolden pins the exact bytes the primary's appends write for
// each of the four record kinds, the control record's empty id included, and
// a create with and without a draw version.
// Journals written by an older binary must replay on a newer one, so these
// bytes may only change together with a format version. It also pins that a
// follower fed the primary's tail stream writes byte-identical frames, and
// that compaction renders live sessions in the same bytes.
func TestFrameBytesGolden(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var shipped []Entry
	l.Tail(func(e Entry) { shipped = append(shipped, e) })
	if err := l.SetEpoch(5); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCreateCtx(ctx, SessionState{ID: "s1", Algo: "ea", Eps: 0.1, Seed: 7, Fingerprint: 42, IdemKey: "k1"}); err != nil {
		t.Fatal(err)
	}
	for _, a := range []bool{true, false} {
		if err := l.AppendAnswerCtx(ctx, "s1", a); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendFinishCtx(ctx, "s1", ReasonFinished); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCreateCtx(ctx, SessionState{ID: "s2", Algo: "aa", Seed: -3, DrawVersion: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAnswerCtx(ctx, "s2", true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := goldenFrames(
		`{"k":4,"id":"","ep":5}`,
		`{"k":1,"id":"s1","algo":"ea","eps":0.1,"seed":7,"fp":42,"ik":"k1"}`,
		`{"k":2,"id":"s1","n":1,"a":true}`,
		`{"k":2,"id":"s1","n":2}`,
		`{"k":3,"id":"s1","why":"finished"}`,
		`{"k":1,"id":"s2","algo":"aa","seed":-3,"dv":1}`,
		`{"k":2,"id":"s2","n":1,"a":true}`,
	)
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("primary segment bytes:\n got %q\nwant %q", got, want)
	}

	// A follower applying the shipped stream journals the same bytes.
	fdir := t.TempDir()
	f, _, err := Open(fdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.ApplyEntries(shipped); err != nil || n != len(shipped) {
		t.Fatalf("follower applied %d of %d entries: %v", n, len(shipped), err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(fdir, segName(1))); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("follower segment bytes (err %v):\n got %q\nwant %q", err, got, want)
	}

	// Compaction writes the epoch first, then each live session's create and
	// answers, in the primary's own framing.
	l, _, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want = goldenFrames(
		`{"k":4,"id":"","ep":5}`,
		`{"k":1,"id":"s2","algo":"aa","seed":-3,"dv":1}`,
		`{"k":2,"id":"s2","n":1,"a":true}`,
	)
	if got, err := os.ReadFile(filepath.Join(dir, segName(2))); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("compacted segment bytes (err %v):\n got %q\nwant %q", err, got, want)
	}
}

// TestEntryWireGolden pins the replication wire form of Entry: entries as a
// sender encodes them today and as older senders did (control entries
// without an "id" member) decode to the same value, and every kind survives
// an encode/decode round trip. Entries are built field by field so the test
// does not depend on how Entry lays its fields out.
func TestEntryWireGolden(t *testing.T) {
	var create, answer, finish, control Entry
	create.LSN, create.Bytes = 1, 76
	create.Kind, create.ID, create.Algo, create.Eps, create.Seed, create.FP, create.IK = KindCreate, "s1", "ea", 0.1, 7, 42, "k1"
	answer.LSN, answer.Bytes = 2, 117
	answer.Kind, answer.ID, answer.Round, answer.Prefer = KindAnswer, "s1", 1, true
	finish.LSN, finish.Bytes = 3, 160
	finish.Kind, finish.ID, finish.Reason = KindFinish, "s1", ReasonExpired
	control.LSN, control.Bytes = 4, 190
	control.Kind, control.Epoch = KindControl, 5

	cases := []struct {
		wire string
		want Entry
	}{
		{`{"lsn":1,"b":76,"k":1,"id":"s1","algo":"ea","eps":0.1,"seed":7,"fp":42,"ik":"k1"}`, create},
		{`{"lsn":2,"b":117,"k":2,"id":"s1","n":1,"a":true}`, answer},
		{`{"lsn":3,"b":160,"k":3,"id":"s1","why":"expired"}`, finish},
		{`{"lsn":4,"b":190,"k":4,"ep":5}`, control},
		{`{"lsn":4,"b":190,"k":4,"id":"","ep":5}`, control},
	}
	for _, c := range cases {
		var got Entry
		if err := json.Unmarshal([]byte(c.wire), &got); err != nil {
			t.Fatalf("decode %s: %v", c.wire, err)
		}
		if got != c.want {
			t.Errorf("decode %s = %+v, want %+v", c.wire, got, c.want)
		}
		enc, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		var back Entry
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decode own encoding %s: %v", enc, err)
		}
		if back != c.want {
			t.Errorf("round trip through %s = %+v, want %+v", enc, back, c.want)
		}
	}
}
