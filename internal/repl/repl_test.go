package repl

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"isrl/internal/fault"
	"isrl/internal/netfault"
	"isrl/internal/wal"
)

// fastOpts are test timings: fast heartbeats so streams converge in
// milliseconds, quick redial so severed links heal inside the poll window.
func fastOpts(seed int64) Options {
	return Options{
		Heartbeat:     20 * time.Millisecond,
		RedialBackoff: 10 * time.Millisecond,
		DialTimeout:   time.Second,
		Seed:          seed,
	}
}

func openLog(t *testing.T, opts wal.Options) (*wal.Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, dir
}

// statesJSON renders a log's full session snapshot in a canonical order for
// byte comparison across nodes.
func statesJSON(t *testing.T, l *wal.Log) string {
	t.Helper()
	states, _, _ := l.ReplSnapshot()
	sort.Slice(states, func(i, j int) bool { return states[i].ID < states[j].ID })
	data, err := json.Marshal(states)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// waitSynced polls until the follower's journal state matches the
// primary's, failing the test after timeout.
func waitSynced(t *testing.T, primary, follower *wal.Log, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	want := statesJSON(t, primary)
	for time.Now().Before(deadline) {
		if statesJSON(t, follower) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never converged:\n primary: %s\nfollower: %s", want, statesJSON(t, follower))
}

// driveSessions appends a deterministic workload: n live sessions, each
// with three answers.
func driveSessions(t *testing.T, l *wal.Log, n, offset int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := string(rune('a'+offset)) + string(rune('0'+i))
		if err := l.AppendCreateCtx(context.Background(), wal.SessionState{ID: id, Algo: "ea", Eps: 0.1, Seed: int64(i), IdemKey: "k-" + id}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if err := l.AppendAnswerCtx(context.Background(), id, r%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReplStreamsTailToFollower is the basic happy path: a fresh pair
// resumes from LSN 0 without a snapshot, and everything the primary commits
// shows up byte-identical in the follower's journal.
func TestReplStreamsTailToFollower(t *testing.T) {
	pLog, _ := openLog(t, wal.Options{})
	fLog, _ := openLog(t, wal.Options{})

	follower, err := NewFollower(fLog, "127.0.0.1:0", fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	follower.Start()
	defer follower.Close()

	primary := NewPrimary(pLog, follower.Addr(), fastOpts(1))
	primary.Start()
	defer primary.Close()

	driveSessions(t, pLog, 4, 0)
	waitSynced(t, pLog, fLog, 5*time.Second)

	if st := primary.Stats(); st.SnapshotsSent != 0 {
		t.Errorf("fresh pair pushed %d snapshots, want 0 (tail resume from LSN 0)", st.SnapshotsSent)
	}
	if st := follower.Stats(); st.RecordsApplied == 0 {
		t.Error("follower applied no records")
	}
	if r, _ := follower.Lag(); r != 0 {
		t.Errorf("converged follower reports lag %d records", r)
	}
	if role := follower.Role(); role != "follower" {
		t.Errorf("unpromoted follower reports role %q", role)
	}
}

// TestReplSnapshotsPreexistingState covers the other bootstrap path: the
// primary already has journaled sessions before replication starts, which
// are invisible to the LSN stream and must arrive via snapshot.
func TestReplSnapshotsPreexistingState(t *testing.T) {
	pLog, _ := openLog(t, wal.Options{})
	driveSessions(t, pLog, 3, 0) // journaled BEFORE the node exists
	pLog.Close()
	// Reopen: recovery rebuilds state without appending, so Pos() is 0 while
	// the journal holds three sessions — exactly the restart scenario.
	var err error
	pLog2, _, err := wal.Open(pLog.Dir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pLog2.Close()
	fLog, _ := openLog(t, wal.Options{})

	follower, err := NewFollower(fLog, "127.0.0.1:0", fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	follower.Start()
	defer follower.Close()

	// The follower resumes at LSN 0 and the ring can serve from 0, but the
	// recovered sessions predate the stream entirely — a pure tail resume
	// would silently skip them. HasBootState must force the snapshot path.
	primary := NewPrimary(pLog2, follower.Addr(), fastOpts(1))
	primary.Start()
	defer primary.Close()

	driveSessions(t, pLog2, 2, 5)
	waitSynced(t, pLog2, fLog, 5*time.Second)
	if st := primary.Stats(); st.SnapshotsSent == 0 {
		t.Error("recovered-state primary never snapshotted; follower would miss pre-stream sessions")
	}
}

// TestReplOffsetResumeAcrossRotation is the rotation regression pin: tiny
// segments force the WAL to rotate mid-stream, the link is severed and
// healed, and the reconnect must resume from the follower's offset — same
// stream id, no snapshot — without dropping the tail that rotation moved
// into a new segment file.
func TestReplOffsetResumeAcrossRotation(t *testing.T) {
	plan := fault.NewPlan(1)
	fault.Install(plan)
	defer fault.Install(nil)

	pLog, _ := openLog(t, wal.Options{SegmentBytes: 512}) // a handful of records per segment
	fLog, _ := openLog(t, wal.Options{})

	follower, err := NewFollower(fLog, "127.0.0.1:0", fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	follower.Start()
	defer follower.Close()

	primary := NewPrimary(pLog, follower.Addr(), fastOpts(1))
	primary.Start()
	defer primary.Close()

	driveSessions(t, pLog, 2, 0)
	waitSynced(t, pLog, fLog, 5*time.Second)
	base := primary.Stats()

	// Sever the link: every send now fails, the stream breaks, redials keep
	// failing until healed.
	plan.Set(fault.PointReplSend, fault.Spec{ErrProb: 1})
	plan.Set(fault.PointReplHeartbeat, fault.Spec{ErrProb: 1})
	time.Sleep(50 * time.Millisecond)

	// Drive enough records through the outage to cross several 512-byte
	// rotation boundaries.
	driveSessions(t, pLog, 6, 3)

	// Heal and wait for convergence.
	plan.Set(fault.PointReplSend, fault.Spec{})
	plan.Set(fault.PointReplHeartbeat, fault.Spec{})
	waitSynced(t, pLog, fLog, 10*time.Second)

	after := primary.Stats()
	if after.SnapshotsSent != base.SnapshotsSent {
		t.Errorf("reconnect across rotation used a snapshot (%d -> %d); want pure offset resume",
			base.SnapshotsSent, after.SnapshotsSent)
	}
	if after.Reconnects == base.Reconnects {
		t.Error("link was never severed; the test exercised nothing")
	}
	// And the rotated tail really is on the follower's disk: reopen and count.
	follower.Close()
	fLog.Close()
	recs, err := wal.Records(fLog.Dir())
	if err != nil {
		t.Fatal(err)
	}
	creates := 0
	for _, r := range recs {
		if r.Kind == wal.KindCreate {
			creates++
		}
	}
	if creates != 8 {
		t.Errorf("follower journal holds %d creates, want 8 (rotation dropped part of the tail)", creates)
	}
}

// TestReplPromotionFencesDeposedPrimary drives the full failover protocol:
// the primary dies, the follower's watchdog promotes it (bumping the
// epoch), and when the old primary comes back its stream is denied and its
// journal fenced — appends fail with wal.ErrStaleEpoch.
func TestReplPromotionFencesDeposedPrimary(t *testing.T) {
	pLog, _ := openLog(t, wal.Options{})
	fLog, _ := openLog(t, wal.Options{})

	opts := fastOpts(2)
	opts.PromoteAfter = 150 * time.Millisecond
	opts.PromoteJitter = 20 * time.Millisecond
	follower, err := NewFollower(fLog, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	var promotedEpoch atomic.Uint64
	var promotedSessions atomic.Int64
	follower.OnPromote(func(epoch uint64, states []wal.SessionState) {
		promotedEpoch.Store(epoch)
		promotedSessions.Store(int64(len(states)))
	})
	follower.Start()
	defer follower.Close()

	primary := NewPrimary(pLog, follower.Addr(), fastOpts(1))
	primary.Start()

	driveSessions(t, pLog, 3, 0)
	waitSynced(t, pLog, fLog, 5*time.Second)

	// Kill the primary node (the machine dies; its journal survives).
	primary.Close()

	// Role flips last in the promotion sequence (after the OnPromote hook),
	// so once it reads "primary" every other promotion effect is visible.
	deadline := time.Now().Add(5 * time.Second)
	for follower.Role() != "primary" && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if follower.Role() != "primary" {
		t.Fatal("follower never promoted after primary silence")
	}
	if got := promotedEpoch.Load(); got != 1 {
		t.Fatalf("promotion epoch = %d, want 1", got)
	}
	if got := promotedSessions.Load(); got != 3 {
		t.Fatalf("OnPromote saw %d sessions, want 3", got)
	}
	if fLog.Epoch() != 1 {
		t.Fatalf("follower journal epoch = %d, want 1", fLog.Epoch())
	}

	// The deposed primary restarts its ship loop against the promoted node:
	// it must be denied and fence its own journal.
	revenant := NewPrimary(pLog, follower.Addr(), fastOpts(3))
	revenant.Start()
	defer revenant.Close()
	deadline = time.Now().Add(5 * time.Second)
	for !pLog.Fenced() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !pLog.Fenced() {
		t.Fatal("deposed primary's journal never fenced")
	}
	if err := pLog.AppendAnswerCtx(context.Background(), "a0", true); !errors.Is(err, wal.ErrStaleEpoch) {
		t.Fatalf("deposed primary append: %v, want wal.ErrStaleEpoch", err)
	}
	if st := follower.Stats(); st.StaleDenied == 0 {
		t.Error("promoted follower denied no stale primaries")
	}
}

// TestReplDenyWithoutHigherEpochRedials pins the split-brain fix: a deny
// whose epoch is not above the primary's (a follower mid-promotion, before
// its epoch bump is durable) must be treated as a broken stream — the
// primary redials until a deny that can actually fence it arrives. The old
// behaviour stopped permanently on the first deny, leaving an unfenced
// primary accepting writes alongside the promoted follower.
func TestReplDenyWithoutHigherEpochRedials(t *testing.T) {
	pLog, _ := openLog(t, wal.Options{})
	driveSessions(t, pLog, 1, 0) // a live session to probe fenced appends with

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var denies atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			m, err := readMsg(conn, time.Second)
			if err != nil || m.T != "hello" {
				conn.Close()
				continue
			}
			// First few denies carry the primary's own epoch — the
			// mid-promotion race where SetEpoch is not yet durable. Then the
			// bump lands and denies carry the higher epoch.
			ep := m.Epoch
			if denies.Add(1) > 3 {
				ep = m.Epoch + 1
			}
			writeMsg(conn, msg{T: "deny", Epoch: ep, Err: "promoting"}, time.Second)
			conn.Close()
		}
	}()

	primary := NewPrimary(pLog, ln.Addr().String(), fastOpts(1))
	primary.Start()
	defer primary.Close()

	deadline := time.Now().Add(5 * time.Second)
	for !pLog.Fenced() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !pLog.Fenced() {
		t.Fatal("primary never fenced: it stopped redialing after a non-fencing deny")
	}
	if got := denies.Load(); got <= 3 {
		t.Errorf("primary fenced after %d denies; the non-fencing denies cannot have fenced it", got)
	}
	if err := pLog.AppendAnswerCtx(context.Background(), "a0", true); !errors.Is(err, wal.ErrStaleEpoch) {
		t.Fatalf("fenced primary append: %v, want wal.ErrStaleEpoch", err)
	}
}

// TestReplPromoteRetriesAfterEpochAppendFailure pins the watchdog-wedge
// fix: when the epoch control record cannot be journaled (disk fault at
// promotion time), the follower must stay promotable and the watchdog must
// keep retrying rather than exiting with `promoting` stuck true.
func TestReplPromoteRetriesAfterEpochAppendFailure(t *testing.T) {
	plan := fault.NewPlan(1)
	fault.Install(plan)
	defer fault.Install(nil)

	fLog, _ := openLog(t, wal.Options{})
	opts := fastOpts(2)
	opts.PromoteAfter = 50 * time.Millisecond
	opts.PromoteJitter = 10 * time.Millisecond
	follower, err := NewFollower(fLog, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}

	plan.Set(fault.PointWALWrite, fault.Spec{ErrProb: 1})
	follower.Start()
	defer follower.Close()

	// Let the watchdog fire into the failing journal a few times.
	time.Sleep(200 * time.Millisecond)
	if follower.Role() == "primary" {
		t.Fatal("follower promoted while the epoch append was failing")
	}

	// Heal the disk: the next watchdog tick must complete the promotion.
	plan.Set(fault.PointWALWrite, fault.Spec{})
	deadline := time.Now().Add(5 * time.Second)
	for follower.Role() != "primary" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if follower.Role() != "primary" {
		t.Fatal("watchdog never retried promotion after the epoch append failure")
	}
	if fLog.Epoch() != 1 {
		t.Fatalf("promoted follower epoch = %d, want 1", fLog.Epoch())
	}
}

// TestReplPreHandshakeTrafficCannotStallPromotion pins the watchdog-
// suppression fix: validly-framed messages from a peer that never completes
// the hello handshake must be dropped without resetting the promotion
// watchdog, so a port-scanning (or malicious) peer cannot hold a follower
// out of promotion forever.
func TestReplPreHandshakeTrafficCannotStallPromotion(t *testing.T) {
	fLog, _ := openLog(t, wal.Options{})
	opts := fastOpts(2)
	opts.PromoteAfter = 100 * time.Millisecond
	opts.PromoteJitter = 20 * time.Millisecond
	follower, err := NewFollower(fLog, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	follower.Start()
	defer follower.Close()

	// Spam heartbeats with no hello, redialing every time the follower
	// (correctly) drops the connection.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := net.Dial("tcp", follower.Addr())
			if err != nil {
				continue
			}
			for writeMsg(conn, msg{T: "hb", Epoch: 99, LSN: 1}, 100*time.Millisecond) == nil {
				select {
				case <-stop:
					conn.Close()
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
			conn.Close()
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for follower.Role() != "primary" && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if follower.Role() != "primary" {
		t.Fatal("pre-handshake heartbeats suppressed auto-promotion")
	}
}

// TestReplTokenGatesHandshake covers the shared-secret option: a follower
// with a Token drops hellos without it (no welcome, no epoch adoption),
// while a primary presenting the matching token streams normally.
func TestReplTokenGatesHandshake(t *testing.T) {
	fLog, _ := openLog(t, wal.Options{})
	fOpts := fastOpts(2)
	fOpts.Token = "s3cret"
	follower, err := NewFollower(fLog, "127.0.0.1:0", fOpts)
	if err != nil {
		t.Fatal(err)
	}
	follower.Start()
	defer follower.Close()

	// Unauthenticated hello claiming a huge epoch: must be dropped, not
	// welcomed, must not bump the follower's epoch, and is counted.
	rejected := mHandshakeRejected.Value()
	conn, err := net.Dial("tcp", follower.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, msg{T: "hello", Epoch: 42, SID: 7}, time.Second); err != nil {
		t.Fatal(err)
	}
	if m, err := readMsg(conn, time.Second); err == nil {
		t.Fatalf("follower replied %q to an unauthenticated hello, want dropped connection", m.T)
	}
	conn.Close()
	if got := fLog.Epoch(); got != 0 {
		t.Fatalf("unauthenticated hello bumped the epoch to %d", got)
	}
	if mHandshakeRejected.Value() == rejected {
		t.Error("the unauthenticated hello left repl.handshake_rejected unmoved")
	}

	pLog, _ := openLog(t, wal.Options{})
	pOpts := fastOpts(1)
	pOpts.Token = "s3cret"
	primary := NewPrimary(pLog, follower.Addr(), pOpts)
	primary.Start()
	defer primary.Close()
	driveSessions(t, pLog, 2, 0)
	waitSynced(t, pLog, fLog, 5*time.Second)
}

// TestReplBytesSentMatchesJournal pins the shipped-byte accounting: a fresh
// pair streams the whole journal from LSN 0, so the primary's BytesSent
// must equal the journal's cumulative byte position exactly — no off-by-a-
// frame undercount.
func TestReplBytesSentMatchesJournal(t *testing.T) {
	pLog, _ := openLog(t, wal.Options{})
	fLog, _ := openLog(t, wal.Options{})

	follower, err := NewFollower(fLog, "127.0.0.1:0", fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	follower.Start()
	defer follower.Close()

	primary := NewPrimary(pLog, follower.Addr(), fastOpts(1))
	primary.Start()
	defer primary.Close()

	driveSessions(t, pLog, 4, 0)
	waitSynced(t, pLog, fLog, 5*time.Second)

	pos := pLog.Pos()
	if st := primary.Stats(); st.BytesSent != pos.Bytes {
		t.Errorf("BytesSent = %d, want %d (journal cumulative bytes)", st.BytesSent, pos.Bytes)
	}
}

// TestReplConvergesThroughNetfaultProxy rams the replication link itself
// through the seeded TCP chaos proxy: killed and delayed connections force
// reconnects and replays, and the idempotent apply still converges to
// byte-identical journals.
func TestReplConvergesThroughNetfaultProxy(t *testing.T) {
	pLog, _ := openLog(t, wal.Options{})
	fLog, _ := openLog(t, wal.Options{})

	follower, err := NewFollower(fLog, "127.0.0.1:0", fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	follower.Start()
	defer follower.Close()

	plan, err := netfault.ParsePlan("kill=0.7,delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := netfault.New(follower.Addr(), plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	primary := NewPrimary(pLog, proxy.Addr(), fastOpts(1))
	primary.Start()
	defer primary.Close()

	for burst := 0; burst < 5; burst++ {
		driveSessions(t, pLog, 2, burst*2)
		time.Sleep(20 * time.Millisecond)
	}
	waitSynced(t, pLog, fLog, 15*time.Second)

	injected := 0
	for _, f := range proxy.Fates() {
		if f != 0 {
			injected++
		}
	}
	if injected == 0 {
		t.Fatalf("proxy injected no faults across %d connections", len(proxy.Fates()))
	}
	t.Logf("repl link: %d connections, %d faulted, stats=%+v", len(proxy.Fates()), injected, primary.Stats())
}
