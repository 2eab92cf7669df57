// Package wal is a write-ahead journal for interactive sessions: an
// append-only, CRC-framed, fsync-on-commit record log that makes a serving
// process crash-safe. Because every algorithm in this repository is
// deterministic given its seed and answer trace (the invariant the
// determinism test suites pin down), a session's entire state can be
// reconstructed by replaying its journaled answers — no polytope snapshots,
// no custom serialization, just three tiny record kinds:
//
//	create  {id, algorithm, eps, seed, dataset fingerprint}
//	answer  {id, round index, prefer-first}
//	finish  {id, reason}        — the tombstone: finished | aborted | expired
//
// On-disk format: numbered segment files (wal-00000001.log, ...) holding
// length- and CRC32-framed JSON records. Appends fsync before returning
// (commit durability); segments rotate at a size threshold; tombstone-heavy
// logs are compacted by rewriting only live sessions into a fresh segment
// via the atomic temp+rename pattern. Recovery tolerates torn and corrupted
// tails: the longest valid record prefix wins, the rest is truncated away
// and counted, never panicked over.
//
// Fault injection: writes, fsyncs and renames are threaded through
// internal/fault points (wal.write / wal.sync / wal.rename, including
// torn-write truncation), so chaos tests can kill and recover a server
// under injected disk failure.
//
// Replication (internal/repl) builds on three additions. Every append is
// assigned an in-memory log sequence number and handed to the Tail sink as
// an Entry, so a primary can tail its own journal without re-reading
// segment files; ReplSnapshot returns the full session mirror
// plus the position it is consistent with, the catch-up path for a
// follower that is too far behind the tail. A follower folds shipped
// state in with ApplyEntries/ApplySnapshot, which are idempotent (creates
// for known ids and answers at already-applied rounds are skipped), so
// at-least-once shipping yields exactly-once state. Finally, a fourth
// record kind — control {epoch} — persists the failover epoch: SetEpoch
// journals a bump at promotion, and Fence rejects every later append with
// ErrStaleEpoch once the node learns a higher epoch exists, which is what
// keeps a deposed primary from committing writes nobody will replicate.
package wal

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"isrl/internal/fault"
	"isrl/internal/obs"
	"isrl/internal/trace"
)

// Kind discriminates journal records.
type Kind uint8

// Record kinds. Values are stable on-disk identifiers; never renumber.
const (
	KindCreate  Kind = 1
	KindAnswer  Kind = 2
	KindFinish  Kind = 3
	KindControl Kind = 4 // replication control: persisted failover epoch
)

// Finish reasons written with KindFinish tombstones.
const (
	ReasonFinished = "finished"
	ReasonAborted  = "aborted"
	ReasonExpired  = "expired"
)

// record is the JSON payload inside one frame.
type record struct {
	Kind   Kind    `json:"k"`
	ID     string  `json:"id"`
	Algo   string  `json:"algo,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	FP     uint64  `json:"fp,omitempty"`
	Round  int     `json:"n,omitempty"`   // 1-based answer index within the session
	Prefer bool    `json:"a,omitempty"`   // answer payload
	Reason string  `json:"why,omitempty"` // finish payload
	IK     string  `json:"ik,omitempty"`  // Idempotency-Key the create carried
	Epoch  uint64  `json:"ep,omitempty"`  // control payload: failover epoch
}

// SessionState is one session reconstructed from (or about to enter) the
// journal: the creation parameters plus the committed answer prefix.
type SessionState struct {
	ID          string
	Algo        string
	Eps         float64
	Seed        int64
	Fingerprint uint64
	IdemKey     string // Idempotency-Key of the create, if the client sent one
	Answers     []bool
	Finished    bool   // a tombstone was journaled
	Reason      string // tombstone reason when Finished
}

// Options tunes a Log. The zero value selects production defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 4 MiB.
	SegmentBytes int64
	// CompactDeadSessions triggers compaction once at least this many
	// tombstoned sessions sit in the log. Default 256.
	CompactDeadSessions int
	// Logger receives recovery and scrub warnings (torn-tail truncations,
	// quarantines, manifest trouble). Default slog.Default().
	Logger *slog.Logger
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactDeadSessions <= 0 {
		o.CompactDeadSessions = 256
	}
}

func (o *Options) logger() *slog.Logger {
	if o.Logger == nil {
		return slog.Default()
	}
	return o.Logger
}

// frameHeader is uint32 payload length + uint32 CRC32(payload), little
// endian. maxRecordBytes rejects absurd lengths when scanning a corrupted
// log (a flipped bit in the length field must not allocate gigabytes).
const (
	frameHeaderLen = 8
	maxRecordBytes = 1 << 20
)

// Journal metrics, process-wide like the fault counters so a chaos run is
// auditable from /metrics.
var (
	mAppends       = obs.Default().Counter("wal.appends")
	mFsyncs        = obs.Default().Counter("wal.fsyncs")
	mFsyncErrors   = obs.Default().Counter("wal.fsync_errors")
	mWriteErrors   = obs.Default().Counter("wal.write_errors")
	mCorrupt       = obs.Default().Counter("wal.corrupt_records")
	mTruncBytes    = obs.Default().Counter("wal.truncated_bytes")
	mSegsDropped   = obs.Default().Counter("wal.segments_dropped")
	mRotations     = obs.Default().Counter("wal.rotations")
	mCompactions   = obs.Default().Counter("wal.compactions")
	mRecovered     = obs.Default().Counter("wal.recovered_sessions")
	mRecoveredAns  = obs.Default().Counter("wal.recovered_answers")
	mOrphanRecords = obs.Default().Counter("wal.orphan_records")

	// mFsyncMS times individual fsyncs — the dominant append cost and the
	// first thing to look at when commit latency spikes.
	mFsyncMS = obs.Default().Histogram("wal.fsync_ms", obs.LatencyBuckets())
)

// Log is an open journal. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	active   *os.File
	actSeq   int
	actSize  int64
	actCRC   uint32                   // running CRC32 of the active segment's bytes
	sessions map[string]*SessionState // full in-memory mirror, incl. tombstoned
	dead     int                      // tombstoned sessions not yet compacted away
	sticky   error                    // first write/sync failure; surfaces on /healthz
	fsyncErr int64                    // count of fsync failures on this Log
	closed   bool

	// Self-healing state: the sealed-segment manifest, the quarantine set,
	// and the scrub/repair bookkeeping Integrity() reports.
	manifest      map[int]segMeta
	quarantined   map[int]bool
	lastScrubUnix int64
	scrubbed      int64 // sealed segments verified clean, lifetime
	corruptSeen   int64 // sealed segments that failed verification, lifetime
	repaired      int64 // quarantined segments restored from a peer, lifetime
	tornTails     int64 // unsealed-tail truncations at recovery, lifetime

	// Replication state. lsn/cumBytes are in-memory positions (they reset
	// every process start; followers resync with a snapshot, which is safe
	// because apply is idempotent). epoch is durable via control records;
	// fencedBy, when above epoch, rejects every append with ErrStaleEpoch.
	lsn      int64
	cumBytes int64
	epoch    uint64
	fencedBy uint64
	boot     bool      // sessions existed at Open: state invisible to the LSN stream
	tail     *tailSink // replication tail sink, nil when none is installed
}

// tailSink is the installed Tail callback; its identity lets a stale
// uninstall recognize that a later Tail replaced it.
type tailSink struct{ fn func(Entry) }

// ErrStaleEpoch is returned by appends on a fenced log: the node learned a
// higher failover epoch exists, so committing here would split-brain the
// session state. Mutations must be redirected to the current primary.
var ErrStaleEpoch = errors.New("wal: stale epoch (node deposed)")

// Entry is one journal append in replication form: the record plus the
// in-memory position it was assigned. Positions order the tail stream and
// size the replication lag; they are not persisted on disk.
type Entry struct {
	LSN    int64   `json:"lsn"`
	Bytes  int64   `json:"b"` // cumulative appended frame bytes at this entry
	Kind   Kind    `json:"k"`
	ID     string  `json:"id,omitempty"`
	Algo   string  `json:"algo,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	FP     uint64  `json:"fp,omitempty"`
	Round  int     `json:"n,omitempty"`
	Prefer bool    `json:"a,omitempty"`
	Reason string  `json:"why,omitempty"`
	IK     string  `json:"ik,omitempty"`
	Epoch  uint64  `json:"ep,omitempty"`
}

// Position is a replication stream offset: how many records the log has
// appended this process lifetime and how many framed bytes they cover.
type Position struct{ LSN, Bytes int64 }

// segName renders the file name of segment seq.
func segName(seq int) string { return fmt.Sprintf("wal-%08d.log", seq) }

// SegName returns the file name of segment seq, exported for tools and
// tests that inspect journal directories from outside the package.
func SegName(seq int) string { return segName(seq) }

// parseSegName extracts the sequence number, reporting ok=false for files
// that are not journal segments.
func parseSegName(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, "wal-%08d.log", &seq); err != nil || segName(seq) != name {
		return 0, false
	}
	return seq, true
}

// Open replays the journal in dir (creating the directory if needed),
// truncates any corrupted tail, and returns the log ready for appends plus
// every session found — tombstoned ones included, so callers can refuse to
// resurrect them.
func Open(dir string, opts Options) (*Log, []SessionState, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{
		dir: dir, opts: opts,
		sessions:    make(map[string]*SessionState),
		quarantined: make(map[int]bool),
	}
	if err := l.recover(); err != nil {
		return nil, nil, err
	}
	states := l.snapshotStates()
	return l, states, nil
}

// snapshotStates deep-copies the session mirror in a stable order.
func (l *Log) snapshotStates() []SessionState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotStatesLocked()
}

// snapshotStatesLocked is snapshotStates for callers already holding l.mu.
func (l *Log) snapshotStatesLocked() []SessionState {
	out := make([]SessionState, 0, len(l.sessions))
	for _, st := range l.sessions {
		cp := *st
		cp.Answers = append([]bool(nil), st.Answers...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// Err returns the sticky write/fsync error, if any: the journal keeps
// accepting appends after a disk fault (availability over durability), but
// the degradation must surface on health checks.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sticky
}

// FsyncErrors returns how many fsyncs failed on this Log.
func (l *Log) FsyncErrors() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fsyncErr
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// AppendCreateCtx journals a session birth. st.Answers and st.Finished are
// ignored (a new session has neither). The framed write and its fsync show
// up as "wal.append" / "wal.fsync" spans when ctx carries an active trace;
// callers outside any request pass context.Background().
func (l *Log) AppendCreateCtx(ctx context.Context, st SessionState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.sessions[st.ID]; dup {
		return fmt.Errorf("wal: duplicate session id %q", st.ID)
	}
	err := l.append(ctx, record{Kind: KindCreate, ID: st.ID, Algo: st.Algo, Eps: st.Eps, Seed: st.Seed, FP: st.Fingerprint, IK: st.IdemKey})
	if err == nil {
		l.sessions[st.ID] = &SessionState{ID: st.ID, Algo: st.Algo, Eps: st.Eps, Seed: st.Seed, Fingerprint: st.Fingerprint, IdemKey: st.IdemKey}
	}
	return err
}

// AppendAnswerCtx journals one committed answer for id. The round index is
// assigned from the in-memory mirror, which makes replay after a crashed
// compaction idempotent (duplicate rounds are skipped on recovery). Tracing
// is as for AppendCreateCtx.
func (l *Log) AppendAnswerCtx(ctx context.Context, id string, prefer bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.sessions[id]
	if !ok {
		return fmt.Errorf("wal: answer for unknown session %q", id)
	}
	err := l.append(ctx, record{Kind: KindAnswer, ID: id, Round: len(st.Answers) + 1, Prefer: prefer})
	if err == nil {
		st.Answers = append(st.Answers, prefer)
	}
	return err
}

// AppendFinishCtx journals a tombstone for id and, when enough dead
// sessions have accumulated, compacts the log. Tracing is as for
// AppendCreateCtx.
func (l *Log) AppendFinishCtx(ctx context.Context, id, reason string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.sessions[id]
	if !ok {
		return fmt.Errorf("wal: finish for unknown session %q", id)
	}
	if st.Finished {
		return nil
	}
	err := l.append(ctx, record{Kind: KindFinish, ID: id, Reason: reason})
	if err == nil {
		st.Finished, st.Reason = true, reason
		l.dead++
		if l.dead >= l.opts.CompactDeadSessions {
			// Best-effort: compaction failure must not fail the session.
			if cerr := l.compactLocked(); cerr != nil && l.sticky == nil {
				l.sticky = cerr
			}
		}
	}
	return err
}

// append frames, writes and fsyncs one record into the active segment,
// rotating first when the segment is full. Callers hold l.mu. The whole
// commit is timed as a "wal.append" span when ctx carries an active trace.
func (l *Log) append(ctx context.Context, rec record) error {
	return l.appendLocked(ctx, rec, true)
}

// appendLocked is append with the fsync made optional, so batched replica
// application can commit many records under one fsync. Callers hold l.mu.
func (l *Log) appendLocked(ctx context.Context, rec record, sync bool) error {
	sp := trace.StartLeaf(ctx, "wal.append")
	if sp != nil {
		sp.SetInt("kind", int64(rec.Kind))
		defer sp.End()
	}
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.fencedBy > l.epoch {
		return fmt.Errorf("%w: fenced at epoch %d, local epoch %d", ErrStaleEpoch, l.fencedBy, l.epoch)
	}
	if l.active == nil {
		// A failed compaction left no active segment; reopen before appending.
		if err := l.openSegment(l.actSeq + 1); err != nil {
			return err
		}
	}
	if l.actSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil && l.sticky == nil {
			l.sticky = err // keep appending into the oversized segment
		}
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	n, err := l.writeFrame(l.active, frame)
	l.actSize += int64(n)
	if n > 0 {
		// Keep the running hash in lockstep with what actually reached the
		// file — torn writes included — so sealing never needs a re-read.
		l.actCRC = crc32.Update(l.actCRC, crc32.IEEETable, frame[:n])
	}
	if err != nil {
		mWriteErrors.Inc()
		if l.sticky == nil {
			l.sticky = err
		}
		return err
	}
	mAppends.Inc()
	l.lsn++
	l.cumBytes += int64(len(frame))
	l.publishLocked(rec)
	if !sync {
		return nil
	}
	if err := l.syncActive(ctx); err != nil {
		// The record reached the OS but not necessarily the platter. Keep
		// serving (the in-memory session is fine) but surface the hazard.
		return nil
	}
	return nil
}

// publishLocked hands the freshly appended record to the tail sink, if one
// is installed. Callers hold l.mu, so the sink sees entries in commit order.
func (l *Log) publishLocked(rec record) {
	if l.tail == nil {
		return
	}
	l.tail.fn(Entry{
		LSN: l.lsn, Bytes: l.cumBytes, Kind: rec.Kind, ID: rec.ID,
		Algo: rec.Algo, Eps: rec.Eps, Seed: rec.Seed, FP: rec.FP,
		Round: rec.Round, Prefer: rec.Prefer, Reason: rec.Reason,
		IK: rec.IK, Epoch: rec.Epoch,
	})
}

// Tail installs sink as the log's replication tail: from now on every
// append — serving commits and ApplyEntries alike — is passed to sink as an
// Entry, synchronously and in commit order, before the append returns. It
// returns the position the stream starts after (the first entry sink sees
// has LSN from.LSN+1) and a function that uninstalls the sink. A log has
// one tail; installing another replaces it, and the replaced sink's
// uninstall function then does nothing.
//
// sink runs with the log's mutex held, so it must not block and must not
// call back into the log — directly or by waiting on a lock that is held
// across a call into the log. Holding no copy of the stream itself, the log
// leaves buffering (and its bound) to the sink.
func (l *Log) Tail(sink func(Entry)) (from Position, uninstall func()) {
	t := &tailSink{fn: sink}
	l.mu.Lock()
	l.tail = t
	from = Position{LSN: l.lsn, Bytes: l.cumBytes}
	l.mu.Unlock()
	return from, func() {
		l.mu.Lock()
		if l.tail == t {
			l.tail = nil
		}
		l.mu.Unlock()
	}
}

// HasBootState reports whether this log recovered any sessions at Open.
// Such state predates the in-memory LSN counter, so it can never arrive at
// a follower through the entry stream — a replication sender whose peer
// resumes at LSN 0 must push a snapshot first when this is true.
func (l *Log) HasBootState() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.boot
}

// Pos returns the log's current replication position.
func (l *Log) Pos() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Position{LSN: l.lsn, Bytes: l.cumBytes}
}

// Epoch returns the durable failover epoch (0 until a control record is
// journaled).
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// SetEpoch journals a control record raising the failover epoch to e. It is
// a no-op when e is not above the current epoch. Raising the epoch clears
// any fence at or below it — the promotion path: the new primary must be
// able to append.
func (l *Log) SetEpoch(e uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e <= l.epoch {
		return nil
	}
	if l.fencedBy > e {
		return fmt.Errorf("%w: cannot adopt epoch %d below fence %d", ErrStaleEpoch, e, l.fencedBy)
	}
	l.fencedBy = 0 // adopting e supersedes any fence at or below it
	if err := l.append(context.Background(), record{Kind: KindControl, Epoch: e}); err != nil {
		return err
	}
	l.epoch = e
	return nil
}

// Fence rejects every subsequent append with ErrStaleEpoch: the node
// learned that epoch e (above its own) exists, so it has been deposed and
// must not commit session state anymore. Fencing at or below the current
// epoch is a no-op.
func (l *Log) Fence(e uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e > l.epoch && e > l.fencedBy {
		l.fencedBy = e
	}
}

// Fenced reports whether appends are currently rejected with ErrStaleEpoch.
func (l *Log) Fenced() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fencedBy > l.epoch
}

// ReplSnapshot returns a deep copy of every session (tombstoned included)
// plus the position and epoch the copy is consistent with: entries with
// LSN above the returned position are exactly the appends not reflected in
// the states.
func (l *Log) ReplSnapshot() ([]SessionState, Position, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotStatesLocked(), Position{LSN: l.lsn, Bytes: l.cumBytes}, l.epoch
}

// writeFrame writes one frame through the wal.write fault point. A torn
// fault persists only the first half of the frame — exactly the tail state a
// power cut mid-write leaves behind.
func (l *Log) writeFrame(f *os.File, frame []byte) (int, error) {
	if err := fault.Hit(fault.PointWALWrite); err != nil {
		if errors.Is(err, fault.ErrTornWrite) {
			n, _ := f.Write(frame[:len(frame)/2])
			return n, err
		}
		return 0, err
	}
	return f.Write(frame)
}

// syncActive fsyncs the active segment through the wal.sync fault point,
// tracking failures for the health check. The fsync is timed into
// wal.fsync_ms and, when ctx carries an active trace, as a "wal.fsync"
// span on the same clock — fsync is where commit latency lives.
func (l *Log) syncActive(ctx context.Context) error {
	_, t := trace.StartTimer(ctx, "wal.fsync", mFsyncMS)
	err := fault.Hit(fault.PointWALSync)
	if err == nil {
		err = l.active.Sync()
	}
	t.Span().SetBool("error", err != nil)
	t.End()
	if err != nil {
		mFsyncErrors.Inc()
		l.fsyncErr++
		if l.sticky == nil {
			l.sticky = fmt.Errorf("wal: fsync: %w", err)
		}
		return err
	}
	mFsyncs.Inc()
	return nil
}

// encodeFrame renders len+crc+payload.
func encodeFrame(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encode record: %w", err)
	}
	return Frame(payload, maxRecordBytes)
}

// Frame wraps payload in the journal's framing — uint32 length + uint32
// CRC32(payload), little endian — the exact layout segments use on disk.
// Exported so the replication wire protocol (internal/repl) ships messages
// under the same checksummed framing. max bounds the payload (0: no bound).
func Frame(payload []byte, max int) ([]byte, error) {
	if max > 0 && len(payload) > max {
		return nil, fmt.Errorf("wal: frame payload too large (%d bytes, max %d)", len(payload), max)
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	return frame, nil
}

// Frame parsing failure modes, distinguishable with errors.Is so callers
// (the scrubber's corruption classifier, tests) can name what broke.
var (
	ErrFrameTorn     = errors.New("wal: torn frame")
	ErrFrameTooLarge = errors.New("wal: frame exceeds size limit")
	ErrFrameChecksum = errors.New("wal: frame checksum mismatch")
)

// ReadFrame reads one length+CRC32 frame from r and returns its payload.
// io.EOF surfaces untouched on a clean boundary; a frame longer than max
// (when max > 0) or failing its checksum is an error — over a network
// stream corruption must fail loudly, not truncate silently like the
// on-disk tail scan does.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	hdr := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: short header: %w", ErrFrameTorn, err)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if max > 0 && int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload: %w", ErrFrameTorn, err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrFrameChecksum
	}
	return payload, nil
}

// ApplyEntries folds shipped journal entries into this (follower) log:
// each entry is deduplicated against the session mirror, appended to the
// local journal, and the whole batch is committed under a single fsync.
// Application is idempotent — creates for known ids, answers at rounds
// already applied and repeated tombstones are skipped — so an at-least-once
// shipping protocol still yields exactly-once state. A gap (an answer
// beyond the next expected round, or an answer/finish for an unknown id)
// aborts the batch with an error: the sender must resynchronize from a
// snapshot. Returns how many entries were actually applied.
func (l *Log) ApplyEntries(entries []Entry) (applied int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ctx := context.Background()
	for _, e := range entries {
		ok, aerr := l.applyEntryLocked(ctx, e)
		if aerr != nil {
			err = aerr
			break
		}
		if ok {
			applied++
		}
	}
	if applied > 0 {
		l.syncActive(ctx) // failure is sticky and surfaces on /healthz
		l.maybeCompactLocked()
	}
	return applied, err
}

// applyEntryLocked applies one shipped entry, reporting whether it changed
// state. Callers hold l.mu.
func (l *Log) applyEntryLocked(ctx context.Context, e Entry) (bool, error) {
	rec := record{
		Kind: e.Kind, ID: e.ID, Algo: e.Algo, Eps: e.Eps, Seed: e.Seed,
		FP: e.FP, Round: e.Round, Prefer: e.Prefer, Reason: e.Reason,
		IK: e.IK, Epoch: e.Epoch,
	}
	switch e.Kind {
	case KindCreate:
		if _, dup := l.sessions[e.ID]; dup {
			return false, nil
		}
		if err := l.appendLocked(ctx, rec, false); err != nil {
			return false, err
		}
		l.sessions[e.ID] = &SessionState{ID: e.ID, Algo: e.Algo, Eps: e.Eps, Seed: e.Seed, Fingerprint: e.FP, IdemKey: e.IK}
		return true, nil
	case KindAnswer:
		st, ok := l.sessions[e.ID]
		if !ok {
			return false, fmt.Errorf("wal: replica answer for unknown session %q", e.ID)
		}
		if e.Round <= len(st.Answers) {
			return false, nil // duplicate: already applied
		}
		if e.Round != len(st.Answers)+1 {
			return false, fmt.Errorf("wal: replica answer gap for %q: round %d after %d applied", e.ID, e.Round, len(st.Answers))
		}
		if err := l.appendLocked(ctx, rec, false); err != nil {
			return false, err
		}
		st.Answers = append(st.Answers, e.Prefer)
		return true, nil
	case KindFinish:
		st, ok := l.sessions[e.ID]
		if !ok {
			return false, fmt.Errorf("wal: replica finish for unknown session %q", e.ID)
		}
		if st.Finished {
			return false, nil
		}
		if err := l.appendLocked(ctx, rec, false); err != nil {
			return false, err
		}
		st.Finished, st.Reason = true, e.Reason
		l.dead++
		return true, nil
	case KindControl:
		if e.Epoch <= l.epoch {
			return false, nil
		}
		if err := l.appendLocked(ctx, rec, false); err != nil {
			return false, err
		}
		l.epoch = e.Epoch
		return true, nil
	default:
		return false, fmt.Errorf("wal: replica entry with unknown kind %d", e.Kind)
	}
}

// ApplySnapshot merges a full session-state snapshot into this (follower)
// log, journaling only the deltas: unknown sessions are created whole,
// known ones have their missing answer suffix and tombstone appended. Like
// ApplyEntries the merge is idempotent and commits under one fsync, so a
// sender may push a snapshot at every reconnect without bloating the
// follower's journal. Returns how many records were appended.
func (l *Log) ApplySnapshot(states []SessionState) (applied int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ctx := context.Background()
	for _, st := range states {
		cur := l.sessions[st.ID]
		if cur == nil {
			rec := record{Kind: KindCreate, ID: st.ID, Algo: st.Algo, Eps: st.Eps, Seed: st.Seed, FP: st.Fingerprint, IK: st.IdemKey}
			if err := l.appendLocked(ctx, rec, false); err != nil {
				return applied, err
			}
			cur = &SessionState{ID: st.ID, Algo: st.Algo, Eps: st.Eps, Seed: st.Seed, Fingerprint: st.Fingerprint, IdemKey: st.IdemKey}
			l.sessions[st.ID] = cur
			applied++
		}
		for i := len(cur.Answers); i < len(st.Answers); i++ {
			rec := record{Kind: KindAnswer, ID: st.ID, Round: i + 1, Prefer: st.Answers[i]}
			if err := l.appendLocked(ctx, rec, false); err != nil {
				return applied, err
			}
			cur.Answers = append(cur.Answers, st.Answers[i])
			applied++
		}
		if st.Finished && !cur.Finished {
			rec := record{Kind: KindFinish, ID: st.ID, Reason: st.Reason}
			if err := l.appendLocked(ctx, rec, false); err != nil {
				return applied, err
			}
			cur.Finished, cur.Reason = true, st.Reason
			l.dead++
			applied++
		}
	}
	if applied > 0 {
		l.syncActive(ctx)
		l.maybeCompactLocked()
	}
	return applied, nil
}

// maybeCompactLocked runs a best-effort compaction once enough tombstoned
// sessions accumulated. Callers hold l.mu.
func (l *Log) maybeCompactLocked() {
	if l.dead >= l.opts.CompactDeadSessions {
		if cerr := l.compactLocked(); cerr != nil && l.sticky == nil {
			l.sticky = cerr
		}
	}
}

// rotateLocked opens the next segment, then seals the old one. Opening
// first means a failure leaves the old (oversized but healthy) segment
// active instead of leaving the log with no file to append to. A fully
// sealed segment (synced, closed) gets a manifest entry freezing its
// length and whole-file CRC — the contract recovery and the scrubber
// verify against.
func (l *Log) rotateLocked() error {
	old, oldSeq, oldSize, oldCRC := l.active, l.actSeq, l.actSize, l.actCRC
	if err := l.openSegment(l.actSeq + 1); err != nil {
		return err
	}
	mRotations.Inc()
	if err := old.Sync(); err != nil {
		old.Close()
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	if err := old.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.sealLocked(oldSeq, oldSize, oldCRC)
	return nil
}

// openSegment opens (creating if absent) segment seq for appends, priming
// the running CRC from any bytes already present.
func (l *Log) openSegment(seq int) error {
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat segment: %w", err)
	}
	var crc uint32
	if info.Size() > 0 {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: read segment: %w", err)
		}
		crc = crc32.ChecksumIEEE(data)
	}
	l.active, l.actSeq, l.actSize, l.actCRC = f, seq, info.Size(), crc
	return nil
}

// Compact rewrites live sessions into a fresh segment and drops everything
// older, reclaiming tombstoned space.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactLocked()
}

// compactLocked writes every live session's create+answer records into a
// new highest-numbered segment via temp+rename, then deletes all older
// segments. A crash between rename and deletion leaves duplicate records,
// which recovery dedupes by round index — so every step is individually
// crash-safe. Callers hold l.mu.
func (l *Log) compactLocked() error {
	if l.closed {
		return errors.New("wal: log closed")
	}
	newSeq := l.actSeq + 1
	tmp, err := os.CreateTemp(l.dir, "wal-compact-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	ids := make([]string, 0, len(l.sessions))
	for id, st := range l.sessions {
		if !st.Finished {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if l.epoch > 0 {
		// The epoch must survive compaction: a deposed primary that compacts
		// away its control record and restarts would come back believing an
		// older epoch and re-enter split brain. Write it first so recovery
		// adopts it before any session state.
		frame, err := encodeFrame(record{Kind: KindControl, Epoch: l.epoch})
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("wal: compact write: %w", err)
		}
	}
	for _, id := range ids {
		st := l.sessions[id]
		frames := make([]record, 0, len(st.Answers)+1)
		frames = append(frames, record{Kind: KindCreate, ID: id, Algo: st.Algo, Eps: st.Eps, Seed: st.Seed, FP: st.Fingerprint, IK: st.IdemKey})
		for i, a := range st.Answers {
			frames = append(frames, record{Kind: KindAnswer, ID: id, Round: i + 1, Prefer: a})
		}
		for _, rec := range frames {
			frame, err := encodeFrame(rec)
			if err != nil {
				tmp.Close()
				return err
			}
			if _, err := tmp.Write(frame); err != nil {
				tmp.Close()
				return fmt.Errorf("wal: compact write: %w", err)
			}
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: compact close: %w", err)
	}
	if err := fault.Hit(fault.PointWALRename); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(l.dir, segName(newSeq))); err != nil {
		return fmt.Errorf("wal: compact rename: %w", err)
	}
	// The compacted segment now holds everything live; retire the past.
	// Deletion walks a glob rather than counting down sequence numbers so a
	// quarantine hole in the sequence cannot strand older segments.
	old := l.active
	l.active = nil
	if old != nil {
		old.Sync()
		old.Close()
	}
	if segs, gerr := filepath.Glob(filepath.Join(l.dir, "wal-*.log")); gerr == nil {
		for _, p := range segs {
			if seq, ok := parseSegName(filepath.Base(p)); ok && seq < newSeq {
				os.Remove(p)
			}
		}
	}
	// The whole sealed history was just superseded: every manifest entry is
	// stale and every quarantined segment's records were rewritten live into
	// the new segment, which ends their quarantine lifecycle.
	for seq := range l.quarantined {
		os.Remove(filepath.Join(l.dir, quarantineName(seq)))
		delete(l.quarantined, seq)
	}
	for seq := range l.manifest {
		delete(l.manifest, seq)
	}
	l.saveManifestLocked()
	for id, st := range l.sessions {
		if st.Finished {
			delete(l.sessions, id)
		}
	}
	l.dead = 0
	mCompactions.Inc()
	return l.openSegment(newSeq)
}
