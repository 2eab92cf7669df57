package wal

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"isrl/internal/fault"
)

// buildJournal writes a known single-segment journal and returns its path
// and the full answer sequence of the one live session.
func buildJournal(t *testing.T, dir string, answers int) string {
	t.Helper()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustCreate(t, l, "s1", 11)
	for i := 0; i < answers; i++ {
		if err := l.AppendAnswerCtx(context.Background(), "s1", i%3 == 0); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return filepath.Join(dir, segName(1))
}

// Property: truncating the journal at EVERY byte offset must recover a
// valid prefix of the answer sequence and never panic or fail to boot.
func TestJournalRecoverEveryTruncationPoint(t *testing.T) {
	master := t.TempDir()
	seg := buildJournal(t, master, 12)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	full := answersOf(t, master)

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, states, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: recovery refused to boot: %v", cut, err)
		}
		got := sessionAnswers(states, "s1")
		if len(got) > len(full) {
			t.Fatalf("cut=%d: recovered MORE answers than written", cut)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("cut=%d: answer %d diverged from prefix", cut, i)
			}
		}
		// The truncated log must accept new appends (if s1 survived).
		if len(states) == 1 && !states[0].Finished {
			if err := l.AppendAnswerCtx(context.Background(), "s1", true); err != nil {
				t.Fatalf("cut=%d: append after recovery: %v", cut, err)
			}
		}
		l.Close()
	}
}

// Property: flipping any single bit must never panic recovery, and the
// recovered answers must be a prefix of the original sequence (the flip
// either lands in a record, killing it and everything after, or in dead
// space past the last frame).
func TestJournalRecoverBitFlips(t *testing.T) {
	master := t.TempDir()
	seg := buildJournal(t, master, 10)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	full := answersOf(t, master)

	rng := rand.New(rand.NewSource(3))
	trials := 200
	for trial := 0; trial < trials; trial++ {
		mut := append([]byte(nil), data...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 1 << (bit % 8)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, states, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("trial %d (bit %d): recovery refused to boot: %v", trial, bit, err)
		}
		got := sessionAnswers(states, "s1")
		if len(got) > len(full) {
			t.Fatalf("trial %d: recovered more answers than written", trial)
		}
		for i := range got {
			if got[i] != full[i] {
				// A flip inside an answer's payload byte would change the
				// answer but also break the CRC, so a surviving record is
				// always intact; divergence means CRC framing failed.
				t.Fatalf("trial %d (bit %d): recovered answer %d diverged", trial, bit, i)
			}
		}
		l.Close()
	}
}

// Property: torn tails produced by the fault injector (half-written frames,
// failed fsyncs) recover the longest valid prefix, count the corruption,
// and never panic.
func TestJournalRecoverTornTailFault(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustCreate(t, l, "s1", 5)
	for i := 0; i < 6; i++ {
		if err := l.AppendAnswerCtx(context.Background(), "s1", true); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Arm a guaranteed torn write: the next append persists half a frame.
	fault.Install(fault.NewPlan(1).Set(fault.PointWALWrite, fault.Spec{TornProb: 1}))
	err = l.AppendAnswerCtx(context.Background(), "s1", false)
	fault.Install(nil)
	if !errors.Is(err, fault.ErrTornWrite) {
		t.Fatalf("torn append error = %v, want ErrTornWrite", err)
	}
	if l.Err() == nil {
		t.Error("torn write did not leave a sticky error for healthz")
	}
	l.Close()

	l2, states, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	defer l2.Close()
	got := sessionAnswers(states, "s1")
	if len(got) != 6 {
		t.Fatalf("recovered %d answers, want the 6 committed before the tear", len(got))
	}
	// The torn bytes were truncated away: appends go to a clean tail.
	if err := l2.AppendAnswerCtx(context.Background(), "s1", false); err != nil {
		t.Fatalf("append after torn-tail truncation: %v", err)
	}
	_, states = reopen(t, l2, Options{})
	if got := sessionAnswers(states, "s1"); len(got) != 7 {
		t.Fatalf("post-truncation append lost: %d answers, want 7", len(got))
	}
}

// Injected fsync failures keep the journal appending (availability) but
// must be counted and surfaced as the sticky error.
func TestJournalFsyncFaultSurfaces(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	mustCreate(t, l, "s1", 5)
	fault.Install(fault.NewPlan(1).Set(fault.PointWALSync, fault.Spec{ErrProb: 1}))
	defer fault.Install(nil)
	if err := l.AppendAnswerCtx(context.Background(), "s1", true); err != nil {
		t.Fatalf("append with failing fsync should still commit in memory: %v", err)
	}
	if l.FsyncErrors() == 0 {
		t.Error("fsync failure not counted")
	}
	if l.Err() == nil {
		t.Error("fsync failure not sticky")
	}
}

// Garbage that merely LOOKS like a huge record (corrupted length field)
// must not allocate or crash recovery.
func TestJournalRecoverAbsurdLength(t *testing.T) {
	dir := t.TempDir()
	data := []byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, states, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery over garbage: %v", err)
	}
	defer l.Close()
	if len(states) != 0 {
		t.Fatalf("garbage produced sessions: %+v", states)
	}
}

// Corruption in a sealed middle segment no longer drops the tail: the
// manifest check quarantines the segment (renamed aside, never deleted)
// and the scan continues over the hole. Recovered answers stay a valid
// PREFIX — records past the hole orphan on the round-index gap — and a
// byte-identical repair restores the full history.
func TestJournalRecoverMidSegmentCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 96})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustCreate(t, l, "s1", 1)
	for i := 0; i < 30; i++ {
		if err := l.AppendAnswerCtx(context.Background(), "s1", true); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments for this test, got %d", len(segs))
	}
	// Corrupt the second segment's first payload byte, keeping a pristine
	// copy — the stand-in for the replication peer's healthy bytes.
	second := filepath.Join(dir, segName(2))
	pristine, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), pristine...)
	data[frameHeaderLen] ^= 0xff
	if err := os.WriteFile(second, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, states, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	got := sessionAnswers(states, "s1")
	if len(got) >= 30 || len(got) == 0 {
		t.Fatalf("corruption in segment 2 should recover a proper answer prefix, got %d", len(got))
	}
	if q := l2.Quarantined(); len(q) != 1 || q[0] != 2 {
		t.Fatalf("quarantined = %v, want [2]", q)
	}
	if _, err := os.Stat(second); !os.IsNotExist(err) {
		t.Errorf("corrupt segment still present under its live name: %v", err)
	}
	if _, err := os.Stat(second + quarantineSuffix); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(left) != len(segs)-1 {
		t.Errorf("later segments should survive a quarantine, have %d of %d", len(left), len(segs))
	}
	// A manifest-matching replacement ends the quarantine; a fresh replay
	// then sees the complete history again.
	if err := l2.RepairSegment(2, pristine); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if q := l2.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantine not cleared by repair: %v", q)
	}
	if restored, err := os.ReadFile(second); err != nil || !bytes.Equal(restored, pristine) {
		t.Errorf("repaired segment not byte-identical (err=%v)", err)
	}
	_, states = reopen(t, l2, Options{})
	if got := sessionAnswers(states, "s1"); len(got) != 30 {
		t.Errorf("post-repair replay recovered %d answers, want all 30", len(got))
	}
}

// answersOf replays the master journal and returns s1's full answers.
func answersOf(t *testing.T, dir string) []bool {
	t.Helper()
	l, states, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return sessionAnswers(states, "s1")
}

func sessionAnswers(states []SessionState, id string) []bool {
	for _, st := range states {
		if st.ID == id {
			return st.Answers
		}
	}
	return nil
}
