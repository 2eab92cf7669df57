// Package repl implements hot-standby replication for the session journal.
//
// A primary tails its own WAL (wal.Log.Tail, a synchronous sink into a
// bounded circular ring) and streams every committed record to one
// follower over a length-framed TCP connection — the frames reuse the
// journal's uint32-length + CRC32 layout (wal.Frame / wal.ReadFrame), so
// wire corruption fails the same checksum that guards the disk. The
// follower folds records into its own journal with the idempotent
// wal.ApplyEntries/ApplySnapshot merge: shipping is at-least-once (every
// reconnect may replay a suffix or push a whole snapshot), apply is
// exactly-once.
//
// Split brain is prevented by a monotone failover epoch persisted as a WAL
// control record. A follower promotes by bumping the epoch; from then on it
// denies any primary whose hello carries a lower epoch, and a deposed
// primary that learns of the higher epoch fences its own journal — every
// subsequent append (and therefore every answer POST) fails with
// wal.ErrStaleEpoch until an operator re-seeds it as a follower.
//
// Promotion is driven by silence: when the follower hears nothing (batches,
// heartbeats) for PromoteAfter plus a seeded jitter, it bumps the epoch,
// rebuilds live sessions through the server's recovery path (OnPromote) and
// starts serving. The jitter keeps two followers of a future multi-standby
// deployment from promoting in the same instant.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

	"isrl/internal/obs"
	"isrl/internal/trace"
	"isrl/internal/wal"
)

// maxFrameBytes bounds one wire frame. Snapshot chunks are the largest
// messages; snapshotChunk sessions of bounded answer traces stay far under
// this, and a frame announcing more is treated as stream corruption.
const maxFrameBytes = 64 << 20

// snapshotChunk caps sessions per snapshot frame.
const snapshotChunk = 256

// msg is the single wire message shape; T discriminates. Every message is
// one CRC32 frame of JSON. Unknown types are ignored by both ends, so the
// anti-entropy triplet (digest/repreq/rep) is wire-compatible with nodes
// that predate it.
type msg struct {
	T       string             `json:"t"`              // hello|welcome|deny|snap|snapend|batch|hb|ack|digest|repreq|rep
	Epoch   uint64             `json:"ep,omitempty"`   // sender's failover epoch
	SID     uint64             `json:"sid,omitempty"`  // hello: primary stream id (resume token)
	Token   string             `json:"tok,omitempty"`  // hello: shared replication secret
	LSN     int64              `json:"lsn,omitempty"`  // position (meaning depends on T)
	Bytes   int64              `json:"b,omitempty"`    // cumulative bytes at LSN
	States  []wal.SessionState `json:"ss,omitempty"`   // snap: one chunk of sessions
	Entries []wal.Entry        `json:"es,omitempty"`   // batch: shipped journal entries
	Err     string             `json:"err,omitempty"`  // deny: human-readable reason
	Segs    []wal.SegmentInfo  `json:"segs,omitempty"` // digest: sealed-segment manifest
	Seq     int                `json:"seq,omitempty"`  // repreq|rep: segment sequence number
	Data    []byte             `json:"d,omitempty"`    // rep: raw segment bytes
	Want    bool               `json:"want,omitempty"` // digest: asks the peer to reply with its own
}

// Options tunes a replication node. The zero value is production-safe for a
// primary; followers usually set PromoteAfter.
type Options struct {
	// Heartbeat is the primary's idle keep-alive interval and the base for
	// the follower's read deadline (4x). Default 250ms.
	Heartbeat time.Duration
	// PromoteAfter is how long a follower tolerates silence before
	// promoting itself. 0 disables auto-promotion (Promote still works).
	PromoteAfter time.Duration
	// PromoteJitter widens PromoteAfter by a seeded draw in [0, jitter).
	// Default PromoteAfter/4.
	PromoteJitter time.Duration
	// RedialBackoff is the primary's pause between failed dials. Default 100ms.
	RedialBackoff time.Duration
	// DialTimeout bounds one dial attempt. Default 2s.
	DialTimeout time.Duration
	// BatchMax caps entries per shipped batch. Default 256.
	BatchMax int
	// RingCap caps the in-memory tail ring; a follower further behind than
	// this resynchronizes from a snapshot. Default 8192.
	RingCap int
	// Token is a shared secret for the replication link. A follower with a
	// Token set drops any hello that does not present it, so a peer that
	// can merely reach the -follow port cannot reset the promotion
	// watchdog, bump the epoch, or feed the journal. Empty disables the
	// check.
	Token string
	// DigestEvery is how often the primary announces its sealed-segment
	// digest over the stream for anti-entropy repair: each exchange lets
	// either end re-fetch quarantined segments whose bytes the peer still
	// holds intact. 0 disables the exchange.
	DigestEvery time.Duration
	// Seed feeds the promotion jitter and the stream id. 0 uses a
	// time-derived seed.
	Seed int64
	// Logger receives role transitions and stream errors. Default slog.Default().
	Logger *slog.Logger
	// Tracer, when set, records a "repl.ship" span per shipped batch.
	Tracer *trace.Tracer
}

func (o Options) heartbeat() time.Duration {
	if o.Heartbeat <= 0 {
		return 250 * time.Millisecond
	}
	return o.Heartbeat
}

func (o Options) promoteJitter() time.Duration {
	if o.PromoteJitter > 0 {
		return o.PromoteJitter
	}
	return o.PromoteAfter / 4
}

func (o Options) redialBackoff() time.Duration {
	if o.RedialBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return o.RedialBackoff
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 2 * time.Second
	}
	return o.DialTimeout
}

func (o Options) batchMax() int {
	if o.BatchMax <= 0 {
		return 256
	}
	return o.BatchMax
}

func (o Options) ringCap() int {
	if o.RingCap <= 0 {
		return 8192
	}
	return o.RingCap
}

func (o Options) logger() *slog.Logger {
	if o.Logger == nil {
		return slog.Default()
	}
	return o.Logger
}

// Stats is a point-in-time snapshot of one node's replication counters,
// exposed for tests and debugging without reaching into global metrics.
type Stats struct {
	SnapshotsSent    int64 // full snapshot pushes (primary)
	BatchesSent      int64
	RecordsSent      int64
	BytesSent        int64 // journal bytes covered by shipped batches
	HeartbeatsSent   int64
	Reconnects       int64 // failed dials + broken streams (primary)
	SnapshotsApplied int64 // snapshot pushes folded in (follower)
	RecordsApplied   int64
	HeartbeatsMissed int64 // read deadlines expired (follower)
	StaleDenied      int64 // hellos/batches denied for a stale epoch (follower)
	Promotions       int64
	DigestsSent      int64 // sealed-segment digests announced to the peer
	DigestsReceived  int64 // peer digests compared against the local manifest
	RepairsRequested int64 // quarantined segments this node asked the peer for
	RepairsServed    int64 // segment bodies served to the peer
	RepairsApplied   int64 // quarantined segments healed with peer bytes
	RepairsRejected  int64 // repair payloads refused (stale epoch or bad bytes)
}

var (
	mBatchesSent     = obs.Default().Counter("repl.batches_sent")
	mRecordsSent     = obs.Default().Counter("repl.records_sent")
	mBytesSent       = obs.Default().Counter("repl.bytes_sent")
	mSnapsSent       = obs.Default().Counter("repl.snapshots_sent")
	mHBSent          = obs.Default().Counter("repl.heartbeats_sent")
	mSendErrors      = obs.Default().Counter("repl.send_errors")
	mReconnects      = obs.Default().Counter("repl.reconnects")
	mRecordsApplied  = obs.Default().Counter("repl.records_applied")
	mSnapsApplied    = obs.Default().Counter("repl.snapshots_applied")
	mHBMissed        = obs.Default().Counter("repl.heartbeats_missed")
	mPromotions      = obs.Default().Counter("repl.promotions")
	mStaleDenied     = obs.Default().Counter("repl.stale_epoch_rejected")
	mDigestsSent     = obs.Default().Counter("repl.digests_sent")
	mRepairsServed   = obs.Default().Counter("repl.repairs_served")
	mRepairsApplied  = obs.Default().Counter("repl.repairs_applied")
	mRepairsRejected = obs.Default().Counter("repl.repairs_rejected")
	// A hello with a bad token, or any message before a hello.
	mHandshakeRejected = obs.Default().Counter("repl.handshake_rejected")

	mLagRecords = obs.Default().Gauge("repl.lag_records")
	mLagBytes   = obs.Default().Gauge("repl.lag_bytes")
	mEpoch      = obs.Default().Gauge("repl.epoch")
)

// writeMsg frames and writes one message under a write deadline, so a
// blackholed peer surfaces as an error instead of a hung goroutine.
func writeMsg(conn net.Conn, m msg, deadline time.Duration) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("repl: encode %s: %w", m.T, err)
	}
	frame, err := wal.Frame(payload, maxFrameBytes)
	if err != nil {
		return fmt.Errorf("repl: frame %s: %w", m.T, err)
	}
	conn.SetWriteDeadline(time.Now().Add(deadline))
	if _, err := conn.Write(frame); err != nil {
		return fmt.Errorf("repl: write %s: %w", m.T, err)
	}
	return nil
}

// readMsg reads one framed message under a read deadline.
func readMsg(conn net.Conn, deadline time.Duration) (msg, error) {
	conn.SetReadDeadline(time.Now().Add(deadline))
	payload, err := wal.ReadFrame(conn, maxFrameBytes)
	if err != nil {
		return msg{}, err
	}
	var m msg
	if err := json.Unmarshal(payload, &m); err != nil {
		return msg{}, fmt.Errorf("repl: decode message: %w", err)
	}
	return m, nil
}

// errDeposed is returned inside the primary's stream loop when the follower
// announced a higher epoch that actually fenced the local journal: this
// node must stop replicating permanently.
var errDeposed = errors.New("repl: deposed by higher epoch")

// errDenied is returned when the follower denied the stream without
// presenting an epoch above ours — a follower mid-promotion whose bump is
// not yet durable. The primary redials like any broken stream; stopping
// here would leave an unfenced primary silently accepting writes.
var errDenied = errors.New("repl: denied without a fencing epoch")

// errResync is returned when the follower's position fell off the tail
// ring; the stream restarts with a snapshot push.
var errResync = errors.New("repl: follower position off the tail ring")

// splitmix64 advances and mixes a 64-bit state; the same generator the
// trace package uses for deterministic IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
