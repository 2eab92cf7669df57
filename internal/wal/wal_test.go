package wal

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// reopen closes l and replays the directory fresh, as a restarted process
// would.
func reopen(t *testing.T, l *Log, opts Options) (*Log, []SessionState) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, states, err := Open(l.Dir(), opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { l2.Close() })
	return l2, states
}

func mustCreate(t *testing.T, l *Log, id string, seed int64) {
	t.Helper()
	if err := l.AppendCreateCtx(context.Background(), SessionState{ID: id, Algo: "UH", Eps: 0.1, Seed: seed, Fingerprint: 42}); err != nil {
		t.Fatalf("AppendCreate(%s): %v", id, err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	l, states, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(states) != 0 {
		t.Fatalf("fresh journal has %d sessions", len(states))
	}
	mustCreate(t, l, "s1", 7)
	answers := []bool{true, false, false, true, true}
	for _, a := range answers {
		if err := l.AppendAnswerCtx(context.Background(), "s1", a); err != nil {
			t.Fatalf("AppendAnswer: %v", err)
		}
	}
	mustCreate(t, l, "s2", 8)
	if err := l.AppendFinishCtx(context.Background(), "s2", ReasonAborted); err != nil {
		t.Fatalf("AppendFinish: %v", err)
	}

	_, got := reopen(t, l, Options{})
	if len(got) != 2 {
		t.Fatalf("recovered %d sessions, want 2", len(got))
	}
	s1 := got[0]
	if s1.ID != "s1" || s1.Algo != "UH" || s1.Eps != 0.1 || s1.Seed != 7 || s1.Fingerprint != 42 {
		t.Errorf("s1 metadata mismatch: %+v", s1)
	}
	if len(s1.Answers) != len(answers) {
		t.Fatalf("s1 answers = %d, want %d", len(s1.Answers), len(answers))
	}
	for i, a := range answers {
		if s1.Answers[i] != a {
			t.Errorf("answer %d = %v, want %v", i, s1.Answers[i], a)
		}
	}
	if s1.Finished {
		t.Error("s1 wrongly tombstoned")
	}
	s2 := got[1]
	if !s2.Finished || s2.Reason != ReasonAborted {
		t.Errorf("s2 tombstone = %v/%q, want true/%q", s2.Finished, s2.Reason, ReasonAborted)
	}
}

func TestJournalErrorsOnBadAppends(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	mustCreate(t, l, "s1", 1)
	if err := l.AppendCreateCtx(context.Background(), SessionState{ID: "s1"}); err == nil {
		t.Error("duplicate create accepted")
	}
	if err := l.AppendAnswerCtx(context.Background(), "ghost", true); err == nil {
		t.Error("answer for unknown session accepted")
	}
	if err := l.AppendFinishCtx(context.Background(), "ghost", ReasonFinished); err == nil {
		t.Error("finish for unknown session accepted")
	}
}

func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustCreate(t, l, "s1", 1)
	for i := 0; i < 50; i++ {
		if err := l.AppendAnswerCtx(context.Background(), "s1", i%2 == 0); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("no rotation happened: %d segments", len(segs))
	}
	_, states := reopen(t, l, Options{SegmentBytes: 128})
	if len(states) != 1 || len(states[0].Answers) != 50 {
		t.Fatalf("rotated journal recovery lost records: %+v", states)
	}
}

func TestJournalCompactionDropsTombstones(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{CompactDeadSessions: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// s1 stays live with some answers; s2..s6 die and trip compaction.
	mustCreate(t, l, "s1", 1)
	l.AppendAnswerCtx(context.Background(), "s1", true)
	l.AppendAnswerCtx(context.Background(), "s1", false)
	for _, id := range []string{"s2", "s3", "s4", "s5"} {
		mustCreate(t, l, id, 2)
		l.AppendAnswerCtx(context.Background(), id, true)
		if err := l.AppendFinishCtx(context.Background(), id, ReasonFinished); err != nil {
			t.Fatalf("finish %s: %v", id, err)
		}
	}
	// Compaction ran; only the live session should survive a replay, and
	// the dead sessions' bytes should be gone from disk.
	_, states := reopen(t, l, Options{})
	if len(states) != 1 || states[0].ID != "s1" {
		t.Fatalf("compacted journal = %+v, want only s1", states)
	}
	if len(states[0].Answers) != 2 {
		t.Fatalf("s1 lost answers in compaction: %+v", states[0])
	}
}

func TestJournalCompactionExplicit(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustCreate(t, l, "s1", 1)
	mustCreate(t, l, "s2", 2)
	l.AppendFinishCtx(context.Background(), "s1", ReasonExpired)
	sizeBefore := dirSize(t, dir)
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if sz := dirSize(t, dir); sz >= sizeBefore {
		t.Errorf("compaction did not shrink the log: %d -> %d bytes", sizeBefore, sz)
	}
	_, states := reopen(t, l, Options{})
	if len(states) != 1 || states[0].ID != "s2" {
		t.Fatalf("post-compaction sessions = %+v, want only s2", states)
	}
	// The expired session must stay dead even though its tombstone was
	// compacted away (it vanished wholesale, not just the tombstone).
	for _, st := range states {
		if st.ID == "s1" {
			t.Error("expired session resurrected by compaction")
		}
	}
}

// A compaction that crashed after writing the new segment but before
// deleting the old ones leaves every record duplicated. The round-indexed
// answers must dedupe on replay, not double-feed.
func TestJournalRecoverAfterCrashedCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustCreate(t, l, "s1", 1)
	l.AppendAnswerCtx(context.Background(), "s1", true)
	l.AppendAnswerCtx(context.Background(), "s1", false)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Simulate the crash window: duplicate the whole segment under the next
	// sequence number, as if compaction renamed but never cleaned up.
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, states, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over duplicated segments: %v", err)
	}
	if len(states) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(states))
	}
	if got := states[0].Answers; len(got) != 2 || got[0] != true || got[1] != false {
		t.Fatalf("duplicated segment double-fed answers: %v", got)
	}
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// A second tombstone with a different reason changes nothing on any path:
// the primary's append is a no-op, and both replay at recovery and a
// follower's ApplyEntries keep the first reason.
func TestSecondFinishKeepsFirstReason(t *testing.T) {
	ctx := context.Background()
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustCreate(t, l, "s1", 1)
	if err := l.AppendFinishCtx(ctx, "s1", ReasonExpired); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendFinishCtx(ctx, "s1", ReasonAborted); err != nil {
		t.Fatal(err)
	}
	states, _, _ := l.ReplSnapshot()
	if len(states) != 1 || states[0].Reason != ReasonExpired {
		t.Fatalf("primary after a second finish: %+v, want reason %q", states, ReasonExpired)
	}

	finish := func(reason string) Entry {
		var e Entry
		e.Kind, e.ID, e.Reason = KindFinish, "s1", reason
		return e
	}
	var create Entry
	create.Kind, create.ID = KindCreate, "s1"
	batch := []Entry{create, finish(ReasonExpired), finish(ReasonAborted)}
	f, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.ApplyEntries(batch); err != nil || n != 2 {
		t.Fatalf("follower applied %d entries (err %v), want the create and the first finish", n, err)
	}
	if states, _, _ := f.ReplSnapshot(); len(states) != 1 || states[0].Reason != ReasonExpired {
		t.Fatalf("follower after a second finish: %+v, want reason %q", states, ReasonExpired)
	}

	dir := t.TempDir()
	writeSegment(t, dir, 1, `{"k":1,"id":"s1"}`, `{"k":3,"id":"s1","why":"expired"}`, `{"k":3,"id":"s1","why":"aborted"}`)
	r, states, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(states) != 1 || states[0].Reason != ReasonExpired {
		t.Fatalf("recovery of a second finish: %+v, want reason %q", states, ReasonExpired)
	}
}
