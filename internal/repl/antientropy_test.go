package repl

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"isrl/internal/wal"
)

// corruptSealed flips one byte in the sealed segment seq of dir and runs a
// scrub so the damage is detected and quarantined.
func corruptSealed(t *testing.T, l *wal.Log, dir string, seq int) {
	t.Helper()
	path := filepath.Join(dir, wal.SegName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment %d: %v", seq, err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := l.Scrub(context.Background(), 0)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Corrupt != 1 {
		t.Fatalf("scrub found %d corrupt segments, want the 1 just planted", rep.Corrupt)
	}
}

// TestReplAntiEntropyRepairsBothEnds is the full repair loop: a streamed
// pair has byte-identical segment layouts, one sealed segment rots on each
// side, scrubbing quarantines them, and the periodic digest exchange heals
// both — the follower from the primary's digest, the primary from the
// follower's reply digest — restoring byte-identical files.
func TestReplAntiEntropyRepairsBothEnds(t *testing.T) {
	pLog, pDir := openLog(t, wal.Options{SegmentBytes: 256})
	fLog, fDir := openLog(t, wal.Options{SegmentBytes: 256})

	follower, err := NewFollower(fLog, "127.0.0.1:0", fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	follower.Start()
	defer follower.Close()

	pOpts := fastOpts(1)
	pOpts.DigestEvery = 25 * time.Millisecond
	primary := NewPrimary(pLog, follower.Addr(), pOpts)
	primary.Start()
	defer primary.Close()

	driveSessions(t, pLog, 8, 0)
	waitSynced(t, pLog, fLog, 5*time.Second)

	// A follower streamed from LSN 0 re-frames the identical records, so
	// the sealed layouts must agree — the precondition for raw-segment
	// repair (a snapshot-bootstrapped follower would fall back to resync).
	pSealed, fSealed := pLog.SealedSegments(), fLog.SealedSegments()
	if len(pSealed) < 3 || len(fSealed) < 3 {
		t.Fatalf("need ≥3 sealed segments on both ends, have %d/%d", len(pSealed), len(fSealed))
	}
	for i, s := range fSealed {
		if i < len(pSealed) && pSealed[i] != s {
			t.Fatalf("sealed layouts diverge at %d: primary %+v follower %+v", i, pSealed[i], s)
		}
	}

	// Rot a different sealed segment on each side.
	corruptSealed(t, pLog, pDir, pSealed[0].Seq)
	corruptSealed(t, fLog, fDir, fSealed[1].Seq)

	// A node bumps RepairsApplied only after RepairSegment has cleared the
	// quarantine, so wait for the counters as well as the logs.
	healed := func() bool {
		if len(pLog.Quarantined()) != 0 || len(fLog.Quarantined()) != 0 {
			return false
		}
		fst := follower.Stats()
		return primary.Stats().RepairsApplied > 0 && fst.RepairsApplied > 0 && fst.RepairsServed > 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !healed() {
		time.Sleep(10 * time.Millisecond)
	}
	if q := pLog.Quarantined(); len(q) != 0 {
		t.Fatalf("primary still quarantined %v; anti-entropy never healed it", q)
	}
	if q := fLog.Quarantined(); len(q) != 0 {
		t.Fatalf("follower still quarantined %v; anti-entropy never healed it", q)
	}
	for _, seq := range []int{pSealed[0].Seq, fSealed[1].Seq} {
		a, err := os.ReadFile(filepath.Join(pDir, wal.SegName(seq)))
		if err != nil {
			t.Fatalf("primary segment %d after repair: %v", seq, err)
		}
		b, err := os.ReadFile(filepath.Join(fDir, wal.SegName(seq)))
		if err != nil {
			t.Fatalf("follower segment %d after repair: %v", seq, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("segment %d not byte-identical after repair", seq)
		}
	}
	if st := primary.Stats(); st.RepairsApplied == 0 {
		t.Errorf("primary applied no repairs: %+v", st)
	}
	if st := follower.Stats(); st.RepairsApplied == 0 || st.RepairsServed == 0 {
		t.Errorf("follower stats show no repair traffic: %+v", st)
	}
	if in := pLog.Integrity(); in.Repaired == 0 {
		t.Errorf("primary integrity shows no repairs: %+v", in)
	}
}

// TestReplStaleEpochRepairRejected pins the fencing rule for anti-entropy:
// once a follower promotes, a repair offer carrying the old epoch is
// denied at the gate and the quarantined segment stays untouched — a
// fenced primary can never rewrite a promoted node's history.
func TestReplStaleEpochRepairRejected(t *testing.T) {
	fLog, fDir := openLog(t, wal.Options{SegmentBytes: 256})
	driveSessions(t, fLog, 8, 0)
	sealed := fLog.SealedSegments()
	if len(sealed) == 0 {
		t.Fatal("no sealed segments to quarantine")
	}
	victim := sealed[0].Seq
	pristine, err := os.ReadFile(filepath.Join(fDir, wal.SegName(victim)))
	if err != nil {
		t.Fatal(err)
	}
	corruptSealed(t, fLog, fDir, victim)

	follower, err := NewFollower(fLog, "127.0.0.1:0", fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	follower.Start()
	defer follower.Close()

	// Handshake at epoch 0, then promote the follower underneath the link.
	conn, err := net.Dial("tcp", follower.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, msg{T: "hello", SID: 7}, time.Second); err != nil {
		t.Fatal(err)
	}
	if m, err := readMsg(conn, time.Second); err != nil || m.T != "welcome" {
		t.Fatalf("handshake reply = %+v, %v; want welcome", m, err)
	}
	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}

	// The stale "primary" offers the correct bytes — and must still be
	// denied: the gate is the epoch, not the payload.
	if err := writeMsg(conn, msg{T: "rep", Epoch: 0, Seq: victim, Data: pristine}, time.Second); err != nil {
		t.Fatal(err)
	}
	if m, err := readMsg(conn, time.Second); err != nil || m.T != "deny" {
		t.Fatalf("reply to stale repair = %+v, %v; want deny", m, err)
	}
	if q := fLog.Quarantined(); len(q) != 1 || q[0] != victim {
		t.Fatalf("quarantine after stale repair = %v, want [%d] untouched", q, victim)
	}
	st := follower.Stats()
	if st.RepairsRejected == 0 {
		t.Errorf("stale repair not counted as rejected: %+v", st)
	}
	if st.StaleDenied == 0 {
		t.Errorf("stale repair not counted as a stale denial: %+v", st)
	}
	if st.RepairsApplied != 0 {
		t.Errorf("stale repair was applied: %+v", st)
	}
}
