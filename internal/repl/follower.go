package repl

import (
	"errors"
	"net"
	"os"
	"time"

	"isrl/internal/fault"
)

// acceptLoop serves one primary connection at a time; a second dialer
// queues behind the first (the deposed-primary case resolves itself when
// the old stream breaks). Messages from a greeted, non-stale primary reset
// the promotion watchdog.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if n.ctx.Err() != nil {
				return
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		n.serve(conn)
		conn.Close()
	}
}

// serve handles one primary's stream until it breaks, the node closes, or
// the primary proves stale. Nothing before a valid hello handshake touches
// node state: an unauthenticated peer must not be able to reset the
// promotion watchdog, bump the epoch, or feed the journal.
func (n *Node) serve(conn net.Conn) {
	ioDeadline := 4 * n.opts.heartbeat()
	greeted := false
	for {
		if n.ctx.Err() != nil {
			return
		}
		m, err := readMsg(conn, ioDeadline)
		if err != nil {
			if os.IsTimeout(err) {
				mHBMissed.Inc()
				n.mu.Lock()
				n.stats.HeartbeatsMissed++
				n.mu.Unlock()
			}
			return
		}
		if m.T == "hello" && n.opts.Token != "" && m.Token != n.opts.Token {
			mHandshakeRejected.Inc()
			n.opts.logger().Warn("repl: dropping hello with bad replication token")
			return
		}
		if m.T != "hello" && !greeted {
			mHandshakeRejected.Inc()
			return // no handshake: drop before the message reaches anything
		}
		if n.deposedPrimary(m, conn, ioDeadline) {
			return
		}
		n.touch()
		switch m.T {
		case "hello":
			if !n.handleHello(m, conn, ioDeadline) {
				return
			}
			greeted = true
		case "snap":
			if err := fault.Hit(fault.PointReplApply); err != nil {
				return // drop the stream; the primary resyncs on redial
			}
			applied, err := n.log.ApplySnapshot(m.States)
			if err != nil {
				n.opts.logger().Warn("repl: snapshot apply failed", "err", err)
				return
			}
			mRecordsApplied.Add(int64(applied))
			n.mu.Lock()
			n.stats.RecordsApplied += int64(applied)
			n.mu.Unlock()
		case "snapend":
			mSnapsApplied.Inc()
			n.mu.Lock()
			n.stats.SnapshotsApplied++
			n.appliedLSN, n.appliedBytes = m.LSN, m.Bytes
			n.observePrimaryLocked(m)
			n.mu.Unlock()
			n.updateLagGauges()
			if !n.ack(conn, ioDeadline) {
				return
			}
		case "batch":
			if err := fault.Hit(fault.PointReplApply); err != nil {
				return
			}
			applied, err := n.log.ApplyEntries(m.Entries)
			if err != nil {
				n.opts.logger().Warn("repl: batch apply failed; forcing resync", "err", err)
				return // the primary will snapshot on reconnect if needed
			}
			mRecordsApplied.Add(int64(applied))
			n.mu.Lock()
			n.stats.RecordsApplied += int64(applied)
			n.appliedLSN, n.appliedBytes = m.LSN, m.Bytes
			n.observePrimaryLocked(m)
			n.mu.Unlock()
			n.updateLagGauges()
			if !n.ack(conn, ioDeadline) {
				return
			}
		case "hb":
			n.mu.Lock()
			n.observePrimaryLocked(m)
			n.mu.Unlock()
			n.updateLagGauges()
			if !n.ack(conn, ioDeadline) {
				return
			}
		case "digest":
			for _, req := range n.repairRequests(m) {
				if writeMsg(conn, req, ioDeadline) != nil {
					return
				}
			}
			if m.Want {
				if writeMsg(conn, n.digestMsg(false), ioDeadline) != nil {
					return
				}
			}
		case "repreq":
			if rep, ok := n.serveRepair(m); ok {
				if writeMsg(conn, rep, ioDeadline) != nil {
					return
				}
			}
		case "rep":
			n.applyRepair(m)
		}
	}
}

// deposedPrimary checks the sender's epoch against local state; a stale
// primary (lower epoch, or any primary once this node promoted) gets an
// explicit deny so it can fence itself, and the stream ends.
func (n *Node) deposedPrimary(m msg, conn net.Conn, deadline time.Duration) bool {
	localEpoch := n.log.Epoch()
	n.mu.Lock()
	stale := n.promoting || m.Epoch < localEpoch
	if stale {
		n.stats.StaleDenied++
		if m.T == "rep" {
			// A fenced primary offering to "repair" a promoted follower: the
			// payload dies at this gate and is counted as a rejected repair.
			n.stats.RepairsRejected++
		}
	}
	n.mu.Unlock()
	if !stale {
		return false
	}
	if m.T == "rep" {
		mRepairsRejected.Inc()
	}
	mStaleDenied.Inc()
	n.opts.logger().Warn("repl: denying stale primary", "their_epoch", m.Epoch, "our_epoch", localEpoch)
	writeMsg(conn, msg{T: "deny", Epoch: localEpoch, Err: "stale epoch: this follower promoted"}, deadline)
	return true
}

// handleHello adopts the primary's epoch when higher, resolves the resume
// position (a fresh stream id voids any previous position) and welcomes.
func (n *Node) handleHello(m msg, conn net.Conn, deadline time.Duration) bool {
	if m.Epoch > n.log.Epoch() {
		if err := n.log.SetEpoch(m.Epoch); err != nil {
			n.opts.logger().Warn("repl: cannot adopt primary epoch", "err", err)
			return false
		}
		mEpoch.Set(int64(m.Epoch))
	}
	n.mu.Lock()
	if m.SID != n.lastSID {
		n.lastSID = m.SID
		n.appliedLSN, n.appliedBytes = 0, 0
		n.primaryLSN, n.primaryBytes = 0, 0
	}
	resume := n.appliedLSN
	n.everSeen = true
	n.mu.Unlock()
	return writeMsg(conn, msg{T: "welcome", Epoch: n.log.Epoch(), LSN: resume}, deadline) == nil
}

// observePrimaryLocked records the primary's announced head position so Lag
// has a denominator. Callers hold n.mu.
func (n *Node) observePrimaryLocked(m msg) {
	if m.LSN > n.primaryLSN {
		n.primaryLSN = m.LSN
	}
	if m.Bytes > n.primaryBytes {
		n.primaryBytes = m.Bytes
	}
}

func (n *Node) updateLagGauges() {
	records, bytes := n.Lag()
	mLagRecords.Set(records)
	mLagBytes.Set(bytes)
}

func (n *Node) ack(conn net.Conn, deadline time.Duration) bool {
	n.mu.Lock()
	lsn, bytes := n.appliedLSN, n.appliedBytes
	n.mu.Unlock()
	return writeMsg(conn, msg{T: "ack", LSN: lsn, Bytes: bytes}, deadline) == nil
}

// touch resets the promotion watchdog.
func (n *Node) touch() {
	n.mu.Lock()
	n.lastSeen = time.Now()
	n.mu.Unlock()
}

// watchdog promotes the follower once the primary has been silent past
// PromoteAfter plus a seeded jitter.
func (n *Node) watchdog() {
	defer n.wg.Done()
	jitter := time.Duration(0)
	if j := n.opts.promoteJitter(); j > 0 {
		jitter = time.Duration(splitmix64(uint64(n.opts.Seed)+1) % uint64(j))
	}
	limit := n.opts.PromoteAfter + jitter
	tick := limit / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
		}
		n.mu.Lock()
		silent := time.Since(n.lastSeen)
		promoted := n.promoted
		n.mu.Unlock()
		if promoted {
			return
		}
		if silent >= limit {
			// Keep ticking until the promotion actually lands (n.promoted):
			// a failed epoch append resets `promoting`, so the next tick
			// retries instead of leaving the node wedged as a dead follower.
			if err := n.Promote(); err != nil {
				n.opts.logger().Warn("repl: promotion failed; retrying", "err", err)
			}
		}
	}
}
