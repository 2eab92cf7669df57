package wal

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
)

// TestFrameRoundTrip pins the exported framing helpers to the on-disk
// layout: whatever Frame produces, ReadFrame returns verbatim, and any
// payload bit flip fails the checksum loudly (the network path must not
// inherit the disk scan's silent-truncation semantics).
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"hello":"world"}`)
	frame, err := Frame(payload, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bytes.NewReader(frame), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip: got %q want %q", got, payload)
	}

	// Clean EOF on an exact boundary surfaces as io.EOF untouched.
	if _, err := ReadFrame(bytes.NewReader(nil), 1<<20); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}

	// A flipped payload byte must fail the CRC.
	bad := append([]byte(nil), frame...)
	bad[frameHeaderLen] ^= 0x40
	if _, err := ReadFrame(bytes.NewReader(bad), 1<<20); err == nil {
		t.Fatal("corrupted frame read back without error")
	}

	// A frame longer than the limit is rejected before allocation.
	if _, err := ReadFrame(bytes.NewReader(frame), 4); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, err := Frame(payload, 4); err == nil {
		t.Fatal("oversized payload framed")
	}

	// A torn frame (header promises more than the stream holds) errors.
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3]), 1<<20); err == nil {
		t.Fatal("torn frame read back without error")
	}
}

// TestApplyEntriesIdempotent replays the same shipped batch twice: the
// second application must change nothing, which is what makes at-least-once
// shipping exactly-once in effect.
func TestApplyEntriesIdempotent(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	batch := []Entry{
		{LSN: 1, Record: Record{Kind: KindCreate, ID: "s1", Algo: "ea", Eps: 0.1, Seed: 7, IK: "k1"}},
		{LSN: 2, Record: Record{Kind: KindAnswer, ID: "s1", Round: 1, Prefer: true}},
		{LSN: 3, Record: Record{Kind: KindAnswer, ID: "s1", Round: 2, Prefer: false}},
		{LSN: 4, Record: Record{Kind: KindControl, Epoch: 3}},
	}
	applied, err := l.ApplyEntries(batch)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 4 {
		t.Fatalf("first apply: %d entries applied, want 4", applied)
	}
	if got := l.Epoch(); got != 3 {
		t.Fatalf("epoch after control entry: %d, want 3", got)
	}
	applied, err = l.ApplyEntries(batch)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("replayed batch applied %d entries, want 0", applied)
	}
	states, _, _ := l.ReplSnapshot()
	if len(states) != 1 || len(states[0].Answers) != 2 || !states[0].Answers[0] || states[0].Answers[1] {
		t.Fatalf("unexpected state after replay: %+v", states)
	}
}

// TestApplyEntriesGap asserts a non-contiguous answer aborts the batch with
// an error — the signal that forces the primary back onto the snapshot path
// instead of silently corrupting the follower.
func TestApplyEntriesGap(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.ApplyEntries([]Entry{{LSN: 1, Record: Record{Kind: KindCreate, ID: "s1"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ApplyEntries([]Entry{{LSN: 2, Record: Record{Kind: KindAnswer, ID: "s1", Round: 5, Prefer: true}}}); err == nil {
		t.Fatal("answer gap applied without error")
	}
	if _, err := l.ApplyEntries([]Entry{{LSN: 3, Record: Record{Kind: KindAnswer, ID: "nope", Round: 1}}}); err == nil {
		t.Fatal("orphan answer applied without error")
	}
}

// TestApplySnapshotMergesDeltas pushes overlapping snapshots and verifies
// only the missing suffix is journaled each time.
func TestApplySnapshotMergesDeltas(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := []SessionState{{ID: "s1", Algo: "ea", Eps: 0.1, Seed: 3, Answers: []bool{true}}}
	if applied, err := l.ApplySnapshot(first); err != nil || applied != 2 {
		t.Fatalf("first snapshot: applied=%d err=%v, want 2 records (create+answer)", applied, err)
	}
	second := []SessionState{
		{ID: "s1", Algo: "ea", Eps: 0.1, Seed: 3, Answers: []bool{true, false, true}, Finished: true, Reason: "finished"},
		{ID: "s2", Algo: "ea", Eps: 0.1, Seed: 4},
	}
	// s1 gains two answers + tombstone, s2 is new: 3 + 1 records.
	if applied, err := l.ApplySnapshot(second); err != nil || applied != 4 {
		t.Fatalf("second snapshot: applied=%d err=%v, want 4", applied, err)
	}
	if applied, err := l.ApplySnapshot(second); err != nil || applied != 0 {
		t.Fatalf("replayed snapshot: applied=%d err=%v, want 0", applied, err)
	}
	l.Close()

	// A restart must recover exactly the merged state: s1 complete and
	// tombstoned, s2 live and empty.
	l2, states, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	byID := map[string]SessionState{}
	for _, st := range states {
		byID[st.ID] = st
	}
	s1, s2 := byID["s1"], byID["s2"]
	if len(states) != 2 || !s1.Finished || s1.Reason != "finished" || len(s1.Answers) != 3 {
		t.Fatalf("recovered s1 = %+v, want 3 answers + tombstone", s1)
	}
	if s2.Finished || len(s2.Answers) != 0 {
		t.Fatalf("recovered s2 = %+v, want live empty session", s2)
	}
}

// TestEpochSurvivesRestartAndCompaction is the split-brain durability pin:
// the fencing epoch must come back after a clean reopen AND after a
// compaction rewrote every segment.
func TestEpochSurvivesRestartAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetEpoch(5); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCreateCtx(context.Background(), SessionState{ID: "s1", Algo: "ea"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, _, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Epoch(); got != 5 {
		t.Fatalf("epoch after reopen: %d, want 5", got)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, _, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Epoch(); got != 5 {
		t.Fatalf("epoch after compaction+reopen: %d, want 5 (compaction dropped the control record)", got)
	}
}

// TestFenceRejectsAppends pins the deposed-primary behaviour: after Fence,
// every append fails with ErrStaleEpoch, and SetEpoch to a value at or
// above the fence clears it (the re-seeding path).
func TestFenceRejectsAppends(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendCreateCtx(context.Background(), SessionState{ID: "s1"}); err != nil {
		t.Fatal(err)
	}
	l.Fence(2)
	if !l.Fenced() {
		t.Fatal("Fence(2) did not fence a log at epoch 0")
	}
	err = l.AppendAnswerCtx(context.Background(), "s1", true)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("append on fenced log: %v, want ErrStaleEpoch", err)
	}
	if _, err := l.ApplyEntries([]Entry{{LSN: 9, Record: Record{Kind: KindCreate, ID: "s2"}}}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("replica apply on fenced log: %v, want ErrStaleEpoch", err)
	}
	// Adopting an epoch below the fence stays rejected; at the fence, clears.
	if err := l.SetEpoch(1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("SetEpoch below fence: %v, want ErrStaleEpoch", err)
	}
	if err := l.SetEpoch(2); err != nil {
		t.Fatalf("SetEpoch at fence: %v", err)
	}
	if l.Fenced() {
		t.Fatal("log still fenced after adopting the fencing epoch")
	}
	if err := l.AppendAnswerCtx(context.Background(), "s1", true); err != nil {
		t.Fatalf("append after unfencing: %v", err)
	}
}

// TestTailStreamsAppends verifies the LSN stream: the sink sees every
// append synchronously, with consecutive LSNs in commit order starting
// after the returned position; a second Tail replaces the first, whose
// uninstall then does nothing, and an uninstalled sink sees nothing more.
func TestTailStreamsAppends(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if err := l.AppendCreateCtx(context.Background(), SessionState{ID: "s0", Algo: "ea"}); err != nil {
		t.Fatal(err)
	}
	var got []Entry
	from, uninstall := l.Tail(func(e Entry) { got = append(got, e) })
	if from.LSN != 1 || from.Bytes <= 0 {
		t.Fatalf("Tail position = %+v, want LSN 1 with its bytes", from)
	}
	if err := l.AppendCreateCtx(context.Background(), SessionState{ID: "s1", Algo: "ea"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("sink saw %d entries right after the append returned, want 1", len(got))
	}
	if err := l.AppendAnswerCtx(context.Background(), "s1", true); err != nil {
		t.Fatal(err)
	}
	e1, e2 := got[0], got[1]
	if e1.LSN != 2 || e1.Kind != KindCreate || e1.ID != "s1" {
		t.Fatalf("first entry = %+v, want create s1 at LSN 2", e1)
	}
	if e2.LSN != 3 || e2.Kind != KindAnswer || e2.Round != 1 || !e2.Prefer {
		t.Fatalf("second entry = %+v, want answer round 1 at LSN 3", e2)
	}
	if !(from.Bytes < e1.Bytes && e1.Bytes < e2.Bytes) {
		t.Fatalf("cumulative bytes not monotone: %d, %d, %d", from.Bytes, e1.Bytes, e2.Bytes)
	}

	var second []Entry
	_, uninstall2 := l.Tail(func(e Entry) { second = append(second, e) })
	uninstall() // stale: the second sink replaced this one
	if err := l.AppendAnswerCtx(context.Background(), "s1", false); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(second) != 1 || second[0].LSN != 4 {
		t.Fatalf("after replacement: first sink %d entries, second %+v; want 2 and [LSN 4]", len(got), second)
	}
	uninstall2()
	if err := l.AppendAnswerCtx(context.Background(), "s1", true); err != nil {
		t.Fatal(err)
	}
	if len(second) != 1 {
		t.Fatalf("uninstalled sink saw %d entries, want 1", len(second))
	}
}

// TestRecordsExposesEpoch pins the audit API: control records come back
// with their epoch so tests can assert fencing history.
func TestRecordsExposesEpoch(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetEpoch(7); err != nil {
		t.Fatal(err)
	}
	l.Close()
	recs, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != KindControl || recs[0].Epoch != 7 {
		t.Fatalf("audit records = %+v, want one control record at epoch 7", recs)
	}
}
