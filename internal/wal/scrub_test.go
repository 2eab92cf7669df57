package wal

import (
	"bytes"
	"context"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"isrl/internal/fault"
)

// segmented builds a journal with several sealed segments plus a live tail
// and returns it open.
func segmented(t *testing.T, dir string, answers int) *Log {
	t.Helper()
	l, _, err := Open(dir, Options{SegmentBytes: 96})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	mustCreate(t, l, "s1", 1)
	for i := 0; i < answers; i++ {
		if err := l.AppendAnswerCtx(context.Background(), "s1", i%2 == 0); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	return l
}

// Rotation must seal segments into the manifest with their true length and
// whole-file CRC32 — the invariant everything else in the self-healing
// layer verifies against.
func TestManifestSealsOnRotation(t *testing.T) {
	dir := t.TempDir()
	l := segmented(t, dir, 30)
	infos := l.SealedSegments()
	if len(infos) < 2 {
		t.Fatalf("expected ≥2 sealed segments, got %d", len(infos))
	}
	for _, info := range infos {
		data, err := os.ReadFile(filepath.Join(dir, segName(info.Seq)))
		if err != nil {
			t.Fatalf("segment %d: %v", info.Seq, err)
		}
		if int64(len(data)) != info.Len {
			t.Errorf("segment %d manifest len %d, file %d", info.Seq, info.Len, len(data))
		}
		if crc := crc32.ChecksumIEEE(data); crc != info.CRC {
			t.Errorf("segment %d manifest crc %d, file %d", info.Seq, info.CRC, crc)
		}
		if info.Quarantined {
			t.Errorf("segment %d wrongly quarantined", info.Seq)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Errorf("MANIFEST missing after rotation: %v", err)
	}
	// The manifest must survive a restart.
	l2, _ := reopen(t, l, Options{SegmentBytes: 96})
	if got := l2.SealedSegments(); len(got) != len(infos) {
		t.Errorf("reopen lost manifest entries: %d, want %d", len(got), len(infos))
	}
}

// A scrub pass over a journal with one bit flipped in sealed history must
// detect exactly that segment, quarantine it, and leave the healthy ones
// alone; a manifest-matching repair then restores it.
func TestScrubDetectsQuarantinesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	l := segmented(t, dir, 30)
	infos := l.SealedSegments()
	victim := infos[len(infos)/2]
	path := filepath.Join(dir, segName(victim.Seq))
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte(nil), pristine...)
	rotted[len(rotted)/2] ^= 0x01
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := l.Scrub(context.Background(), 0)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Corrupt != 1 || len(rep.Quarantined) != 1 || rep.Quarantined[0] != victim.Seq {
		t.Fatalf("scrub report = %+v, want exactly segment %d corrupt", rep, victim.Seq)
	}
	if rep.Segments != len(infos)-1 {
		t.Errorf("scrub verified %d segments, want %d healthy ones", rep.Segments, len(infos)-1)
	}
	if q := l.Quarantined(); len(q) != 1 || q[0] != victim.Seq {
		t.Fatalf("quarantined = %v, want [%d]", q, victim.Seq)
	}
	in := l.Integrity()
	if in.LastScrubUnix == 0 || in.CorruptDetected != 1 {
		t.Errorf("integrity after scrub = %+v", in)
	}

	// Serving the quarantined segment must refuse; repairing with the wrong
	// bytes must refuse; the pristine bytes must heal it.
	if _, _, err := l.SegmentData(victim.Seq); err == nil {
		t.Error("SegmentData served a quarantined segment")
	}
	if err := l.RepairSegment(victim.Seq, rotted); err == nil {
		t.Error("repair accepted bytes that fail manifest verification")
	}
	if err := l.RepairSegment(victim.Seq, pristine); err != nil {
		t.Fatalf("repair with pristine bytes: %v", err)
	}
	if q := l.Quarantined(); len(q) != 0 {
		t.Fatalf("repair left quarantine set %v", q)
	}
	rep2, err := l.Scrub(context.Background(), 1<<20)
	if err != nil {
		t.Fatalf("post-repair scrub: %v", err)
	}
	if rep2.Corrupt != 0 || rep2.Segments != len(infos) {
		t.Errorf("post-repair scrub = %+v, want all %d segments clean", rep2, len(infos))
	}
	if in := l.Integrity(); in.Repaired != 1 {
		t.Errorf("integrity repaired = %d, want 1", in.Repaired)
	}
}

// An injected read failure at the wal.scrub.read fault point is treated as
// corruption: the sector the disk refuses to return is as gone as a
// flipped bit.
func TestScrubReadFaultQuarantines(t *testing.T) {
	dir := t.TempDir()
	l := segmented(t, dir, 30)
	sealed := l.SealedSegments()
	fault.Install(fault.NewPlan(1).Set(fault.PointScrubRead, fault.Spec{ErrProb: 1}))
	rep, err := l.Scrub(context.Background(), 0)
	fault.Install(nil)
	if err != nil {
		t.Fatalf("scrub under read faults: %v", err)
	}
	if rep.Corrupt != len(sealed) {
		t.Errorf("scrub quarantined %d segments under total read failure, want %d", rep.Corrupt, len(sealed))
	}
	if q := l.Quarantined(); len(q) != len(sealed) {
		t.Errorf("quarantined %v, want all %d sealed segments", q, len(sealed))
	}
}

// CompareDigest drives anti-entropy: a quarantined local segment whose
// peer copy matches the manifest is wanted; same-length different-CRC
// healthy pairs are flagged divergent but never auto-adopted.
func TestCompareDigestWantsAndDivergence(t *testing.T) {
	dir := t.TempDir()
	l := segmented(t, dir, 30)
	infos := l.SealedSegments()
	victim, other := infos[0], infos[1]
	path := filepath.Join(dir, segName(victim.Seq))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x80
	os.WriteFile(path, data, 0o644)
	if _, err := l.Scrub(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	peer := []SegmentInfo{
		victim, // healthy at the peer: we want it
		{Seq: other.Seq, Len: other.Len, CRC: other.CRC ^ 1}, // silent divergence
		{Seq: infos[len(infos)-1].Seq, Len: 1, CRC: 2},       // different layout: ignored
		{Seq: 9999, Len: 5, CRC: 5},                          // unknown to us: ignored
	}
	want, div := l.CompareDigest(peer)
	if len(want) != 1 || want[0] != victim.Seq {
		t.Errorf("want = %v, expected [%d]", want, victim.Seq)
	}
	if len(div) != 1 || div[0] != other.Seq {
		t.Errorf("divergent = %v, expected [%d]", div, other.Seq)
	}

	// A peer whose copy of the quarantined segment is itself quarantined or
	// diverged cannot serve a repair.
	want, _ = l.CompareDigest([]SegmentInfo{{Seq: victim.Seq, Len: victim.Len, CRC: victim.CRC, Quarantined: true}})
	if len(want) != 0 {
		t.Errorf("wanted a segment from a peer that quarantined it: %v", want)
	}
}

// Compaction supersedes the sealed history: manifest entries and
// quarantine files alike must be gone afterwards, and the live state must
// survive untouched.
func TestCompactionRetiresQuarantine(t *testing.T) {
	dir := t.TempDir()
	l := segmented(t, dir, 30)
	infos := l.SealedSegments()
	path := filepath.Join(dir, segName(infos[0].Seq))
	data, _ := os.ReadFile(path)
	data[frameHeaderLen] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := l.Scrub(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if len(l.Quarantined()) != 1 {
		t.Fatal("setup: scrub did not quarantine")
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if q := l.Quarantined(); len(q) != 0 {
		t.Errorf("quarantine survived compaction: %v", q)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix)); len(left) != 0 {
		t.Errorf("quarantine files survived compaction: %v", left)
	}
	_, states := reopen(t, l, Options{})
	if got := sessionAnswers(states, "s1"); len(got) != 30 {
		t.Errorf("compaction lost answers: %d, want 30", len(got))
	}
}

// Satellite regression: a torn tail must not vanish silently — recovery
// logs a structured Warn naming the segment, offset and dropped bytes, and
// bumps the wal.torn_tail_truncations counter.
func TestRecoverTornTailWarnsAndCounts(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, l, "s1", 1)
	for i := 0; i < 4; i++ {
		if err := l.AppendAnswerCtx(context.Background(), "s1", true); err != nil {
			t.Fatal(err)
		}
	}
	fault.Install(fault.NewPlan(1).Set(fault.PointWALWrite, fault.Spec{TornProb: 1}))
	l.AppendAnswerCtx(context.Background(), "s1", false)
	fault.Install(nil)
	l.Close()

	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(syncWriter{&mu, &buf}, nil))
	before := mTornTails.Value()
	l2, _, err := Open(dir, Options{Logger: logger})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l2.Close()
	if got := mTornTails.Value() - before; got != 1 {
		t.Errorf("wal.torn_tail_truncations advanced by %d, want 1", got)
	}
	if in := l2.Integrity(); in.TornTailTruncations != 1 {
		t.Errorf("integrity torn-tail count = %d, want 1", in.TornTailTruncations)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, needle := range []string{"truncating torn tail", segName(1), "offset=", "dropped_bytes="} {
		if !strings.Contains(out, needle) {
			t.Errorf("torn-tail warning lacks %q; log was: %s", needle, out)
		}
	}
}

// syncWriter serializes concurrent handler writes into a test buffer.
type syncWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// Satellite regression: the tail sink's stream must stay gap-free and
// duplicate-free in LSN order while Compact rewrites the segment files
// underneath it — compaction moves bytes, not the logical stream the
// replication primary tails.
func TestTailGapFreeDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256, CompactDeadSessions: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const sessions = 40
	var (
		mu   sync.Mutex
		seen []int64
	)
	_, uninstall := l.Tail(func(e Entry) {
		mu.Lock()
		seen = append(seen, e.LSN)
		mu.Unlock()
	})
	defer uninstall()

	var appends int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sessions; i++ {
			id := "s" + string(rune('A'+i%26)) + segName(i) // unique, cheap
			if err := l.AppendCreateCtx(context.Background(), SessionState{ID: id, Algo: "UH", Seed: int64(i)}); err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
			appends++
			for a := 0; a < 5; a++ {
				if err := l.AppendAnswerCtx(context.Background(), id, a%2 == 0); err != nil {
					t.Errorf("answer %d/%d: %v", i, a, err)
					return
				}
				appends++
			}
			if err := l.AppendFinishCtx(context.Background(), id, ReasonFinished); err != nil {
				t.Errorf("finish %d: %v", i, err)
				return
			}
			appends++
		}
	}()

	// Race compactions against the writer until it finishes.
	for {
		select {
		case <-done:
		default:
			if err := l.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			continue
		}
		break
	}

	mu.Lock()
	defer mu.Unlock()
	var last int64
	for _, lsn := range seen {
		if lsn != last+1 {
			t.Fatalf("LSN stream gap or duplicate: %d after %d", lsn, last)
		}
		last = lsn
	}
	if int64(len(seen)) != appends {
		t.Errorf("sink saw %d entries, writer committed %d", len(seen), appends)
	}
}
