package repl

import (
	"errors"
	"net"
	"time"

	"isrl/internal/fault"
	"isrl/internal/trace"
	"isrl/internal/wal"
)

// feedEntry is the primary's journal tail sink: wal.Log calls it with every
// committed entry, in commit order, while holding the log's mutex. It
// appends the entry to the tail ring in O(1) and pokes the ship loop
// without blocking, so the append path never waits on replication. It
// takes n.mu under the log's mutex, which fixes the lock order l.mu → n.mu:
// no repl path may call into the log while holding n.mu.
//
// The ring keeps a run of consecutive LSNs over (floor, floor+len]: once
// full it overwrites its oldest entry and advances floor. Duplicates are
// skipped; a gap restarts the ring at the new entry, stranding any follower
// behind it on the snapshot path. The log's sink never drops an entry, so
// a gap only arises when an entry reaches the sink before Start has set
// the floor.
func (n *Node) feedEntry(e wal.Entry) {
	n.mu.Lock()
	next := n.floor + int64(len(n.ring)) + 1
	switch {
	case e.LSN < next:
		n.mu.Unlock()
		return
	case e.LSN > next:
		n.ring, n.head = n.ring[:0], 0
		n.floor = e.LSN - 1
		n.floorBytes = -1 // position before the gap entry is unknown
	}
	if len(n.ring) < cap(n.ring) {
		n.ring = append(n.ring, e)
	} else {
		n.floorBytes = n.ring[n.head].Bytes
		n.ring[n.head] = e
		n.head = (n.head + 1) % len(n.ring)
		n.floor++
	}
	n.mu.Unlock()
	select {
	case n.notify <- struct{}{}:
	default:
	}
}

// takeBatch returns up to BatchMax entries with LSN > after, plus the
// cumulative journal position immediately before the first returned entry
// (-1 when that baseline was lost to a feed gap) so the caller can count
// shipped bytes. ok=false means the position fell off the ring (compacted
// past, or a feed gap): the caller must push a snapshot instead.
func (n *Node) takeBatch(after int64) (batch []wal.Entry, prevBytes int64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if after < n.floor {
		return nil, 0, false
	}
	i := int(after - n.floor)
	if i >= len(n.ring) {
		return nil, 0, true
	}
	prevBytes = n.floorBytes
	if i > 0 {
		prevBytes = n.ringAt(i - 1).Bytes
	}
	end := i + n.opts.batchMax()
	if end > len(n.ring) {
		end = len(n.ring)
	}
	batch = make([]wal.Entry, end-i)
	for k := range batch {
		batch[k] = n.ringAt(i + k)
	}
	return batch, prevBytes, true
}

// ringAt returns the i-th oldest ring entry (LSN floor+1+i). Callers hold
// n.mu.
func (n *Node) ringAt(i int) wal.Entry {
	return n.ring[(n.head+i)%len(n.ring)]
}

// shipLoop dials the follower and streams until the node closes or the
// follower announces a higher epoch (this node is deposed: fence and stop
// for good). Every other failure — refused dial, broken pipe, a follower
// that fell off the tail ring — redials with backoff and resumes or
// resyncs.
func (n *Node) shipLoop() {
	defer n.wg.Done()
	backoff := n.opts.redialBackoff()
	for n.ctx.Err() == nil {
		conn, err := net.DialTimeout("tcp", n.target, n.opts.dialTimeout())
		if err != nil {
			mReconnects.Inc()
			n.bumpReconnects()
			if !n.sleep(backoff) {
				return
			}
			continue
		}
		err = n.stream(conn)
		conn.Close()
		switch {
		case errors.Is(err, errDeposed):
			// The log was fenced inside stream; appends now fail with
			// wal.ErrStaleEpoch and there is nothing left to ship.
			n.opts.logger().Warn("repl: deposed by follower with higher epoch; replication stopped",
				"fenced", n.log.Fenced())
			return
		case err != nil && n.ctx.Err() == nil:
			mReconnects.Inc()
			mSendErrors.Inc()
			n.bumpReconnects()
			n.opts.logger().Warn("repl: stream broken; redialing", "err", err)
		}
		if !n.sleep(backoff) {
			return
		}
	}
}

func (n *Node) bumpReconnects() {
	n.mu.Lock()
	n.stats.Reconnects++
	n.mu.Unlock()
}

func (n *Node) sleep(d time.Duration) bool {
	select {
	case <-n.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// stream runs one connection: handshake, optional snapshot resync, then the
// tail loop shipping batches and heartbeats while a reader goroutine folds
// in acks. Returns errDeposed when the follower fences us.
func (n *Node) stream(conn net.Conn) error {
	hbInterval := n.opts.heartbeat()
	ioDeadline := 4 * hbInterval

	if err := writeMsg(conn, msg{T: "hello", Epoch: n.log.Epoch(), SID: n.sid, Token: n.opts.Token}, ioDeadline); err != nil {
		return err
	}
	w, err := readMsg(conn, ioDeadline)
	if err != nil {
		return err
	}
	switch w.T {
	case "deny":
		if w.Epoch > n.log.Epoch() {
			n.log.Fence(w.Epoch)
			return errDeposed
		}
		// A deny without a higher epoch comes from a follower mid-promotion
		// whose epoch bump is not yet durable. Fencing with it would be a
		// no-op, leaving this node unfenced but silent — the split-brain
		// window. Treat it like a broken stream and redial until the
		// follower either presents an epoch that actually fences the
		// journal or accepts us again.
		return errDenied
	case "welcome":
		if w.Epoch > n.log.Epoch() {
			n.log.Fence(w.Epoch)
			return errDeposed
		}
	default:
		return errors.New("repl: unexpected handshake reply " + w.T)
	}

	// A follower resuming at LSN 0 against a log that recovered sessions at
	// boot can never receive those sessions from the tail stream (they
	// predate the in-memory LSN counter), so force the snapshot path.
	sent := w.LSN
	if _, _, ok := n.takeBatch(sent); !ok || (sent == 0 && n.log.HasBootState()) {
		pos, err := n.snapshot(conn, ioDeadline)
		if err != nil {
			return err
		}
		sent = pos.LSN
	}

	// Anti-entropy messages the reader wants written back (repair requests
	// and served segment bodies) queue here for the writer, which owns the
	// connection. The queue is small and lossy by design: a dropped frame
	// is re-generated by a later digest exchange.
	ctrl := make(chan msg, 32)
	enqueue := func(m msg) {
		select {
		case ctrl <- m:
		default:
			n.opts.logger().Warn("repl: anti-entropy queue full; dropping", "type", m.T, "seq", m.Seq)
		}
	}

	// Reader: acks move the lag gauges; a deny mid-stream means a promoted
	// follower — fence and kill the connection so the writer unblocks.
	readerErr := make(chan error, 1)
	go func() {
		for {
			m, err := readMsg(conn, 10*ioDeadline)
			if err != nil {
				readerErr <- err
				return
			}
			switch m.T {
			case "digest":
				for _, req := range n.repairRequests(m) {
					enqueue(req)
				}
			case "repreq":
				if rep, ok := n.serveRepair(m); ok {
					enqueue(rep)
				}
			case "rep":
				n.applyRepair(m)
			case "ack":
				n.mu.Lock()
				if m.LSN > n.ackLSN {
					n.ackLSN = m.LSN
				}
				ack := n.ackLSN
				n.mu.Unlock()
				pos := n.log.Pos()
				if lag := pos.LSN - ack; lag >= 0 {
					mLagRecords.Set(lag)
				}
			case "deny":
				if m.Epoch > n.log.Epoch() {
					n.log.Fence(m.Epoch)
					readerErr <- errDeposed
				} else {
					readerErr <- errDenied
				}
				return
			}
		}
	}()

	hb := time.NewTimer(hbInterval)
	defer hb.Stop()
	var digC <-chan time.Time
	if n.opts.DigestEvery > 0 {
		dig := time.NewTicker(n.opts.DigestEvery)
		defer dig.Stop()
		digC = dig.C
	}
	var batchSeq int64
	for {
		select {
		case err := <-readerErr:
			return err
		case <-n.ctx.Done():
			return nil
		default:
		}
		// Drain queued anti-entropy frames first so repairs flow even while
		// batches keep the stream busy.
	drain:
		for {
			select {
			case m := <-ctrl:
				if err := writeMsg(conn, m, ioDeadline); err != nil {
					return err
				}
			default:
				break drain
			}
		}
		batch, prevBytes, ok := n.takeBatch(sent)
		if !ok {
			return errResync
		}
		if len(batch) > 0 {
			if err := n.shipBatch(conn, batch, prevBytes, ioDeadline, batchSeq); err != nil {
				return err
			}
			sent = batch[len(batch)-1].LSN
			batchSeq++
			if !hb.Stop() {
				select {
				case <-hb.C:
				default:
				}
			}
			hb.Reset(hbInterval)
			continue
		}
		select {
		case err := <-readerErr:
			return err
		case <-n.ctx.Done():
			return nil
		case <-n.notify:
		case m := <-ctrl:
			if err := writeMsg(conn, m, ioDeadline); err != nil {
				return err
			}
		case <-digC:
			if err := writeMsg(conn, n.digestMsg(true), ioDeadline); err != nil {
				return err
			}
		case <-hb.C:
			hb.Reset(hbInterval)
			if err := fault.Hit(fault.PointReplHeartbeat); err != nil {
				mSendErrors.Inc()
				return err
			}
			pos := n.log.Pos()
			if err := writeMsg(conn, msg{T: "hb", Epoch: n.log.Epoch(), LSN: pos.LSN, Bytes: pos.Bytes}, ioDeadline); err != nil {
				return err
			}
			mHBSent.Inc()
			n.mu.Lock()
			n.stats.HeartbeatsSent++
			n.mu.Unlock()
		}
	}
}

// shipBatch sends one batch frame, traced when sampling selects it.
// prevBytes is the cumulative journal position before the batch's first
// entry (-1 when unknown), the baseline for shipped-byte accounting.
func (n *Node) shipBatch(conn net.Conn, batch []wal.Entry, prevBytes int64, deadline time.Duration, seq int64) error {
	if err := fault.Hit(fault.PointReplSend); err != nil {
		mSendErrors.Inc()
		return err
	}
	var sp *trace.Span
	var tr *trace.Trace
	if t := n.opts.Tracer; t != nil && t.Sampled(n.opts.Seed+seq) {
		tr, sp = t.StartTrace("repl.ship", trace.TraceID{}, n.opts.Seed+seq)
	}
	last := batch[len(batch)-1]
	m := msg{T: "batch", Epoch: n.log.Epoch(), LSN: last.LSN, Bytes: last.Bytes, Entries: batch}
	err := writeMsg(conn, m, deadline)
	if sp != nil {
		sp.SetInt("records", int64(len(batch)))
		sp.SetInt("lsn", last.LSN)
		sp.SetBool("error", err != nil)
		sp.End()
		tr.Finish()
	}
	if err != nil {
		return err
	}
	sentBytes := last.Bytes - prevBytes
	if prevBytes < 0 {
		// The baseline fell to a feed gap: count only the deltas inside the
		// batch rather than guess the first entry's frame size.
		sentBytes = last.Bytes - batch[0].Bytes
	}
	mBatchesSent.Inc()
	mRecordsSent.Add(int64(len(batch)))
	mBytesSent.Add(sentBytes)
	n.mu.Lock()
	n.stats.BatchesSent++
	n.stats.RecordsSent += int64(len(batch))
	n.stats.BytesSent += sentBytes
	n.mu.Unlock()
	return nil
}

// snapshot pushes the full session state in chunks, ending with a snapend
// frame carrying the position the snapshot is consistent with. The tail
// loop resumes from that position.
func (n *Node) snapshot(conn net.Conn, deadline time.Duration) (wal.Position, error) {
	if err := fault.Hit(fault.PointReplSend); err != nil {
		mSendErrors.Inc()
		return wal.Position{}, err
	}
	states, pos, epoch := n.log.ReplSnapshot()
	for i := 0; i < len(states); i += snapshotChunk {
		end := i + snapshotChunk
		if end > len(states) {
			end = len(states)
		}
		if err := writeMsg(conn, msg{T: "snap", Epoch: epoch, States: states[i:end]}, deadline); err != nil {
			return wal.Position{}, err
		}
	}
	if err := writeMsg(conn, msg{T: "snapend", Epoch: epoch, LSN: pos.LSN, Bytes: pos.Bytes}, deadline); err != nil {
		return wal.Position{}, err
	}
	mSnapsSent.Inc()
	n.mu.Lock()
	n.stats.SnapshotsSent++
	n.mu.Unlock()
	n.opts.logger().Info("repl: pushed snapshot", "sessions", len(states), "lsn", pos.LSN)
	return pos, nil
}
