// Package wal is a write-ahead journal for interactive sessions: an
// append-only, CRC-framed, fsync-on-commit record log that makes a serving
// process crash-safe. Because every algorithm in this repository is
// deterministic given its seed and answer trace (the invariant the
// determinism test suites pin down), a session's entire state can be
// reconstructed by replaying its journaled answers — no polytope snapshots,
// no custom serialization, just three tiny record kinds:
//
//	create  {id, algorithm, eps, seed, dataset fingerprint, draw version}
//	answer  {id, round index, prefer-first}
//	finish  {id, reason}        — the tombstone: finished | aborted | expired
//
// Replay holds only while the binary draws the same random numbers from a
// seed, so a create carries the draw version (core.DrawVersion) it was
// served under. The journal stores the version without judging it; the
// server's recovery refuses a session journaled under any other version than
// its own and counts it as skipped. A create without the field, written
// before it existed, reads as version 0, which no build serves.
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
// Every path that changes the in-memory session mirror — the primary's
// appends, replay at recovery and after RepairSegment, and a follower's
// ApplyEntries/ApplySnapshot — runs a record through one transition rule
// (check) and folds what it admits with one function (fold). The rule calls
// a record a duplicate when the mirror already reflects it (a create for a
// known id, an answer at or below the applied round, a second tombstone, an
// epoch at or below the current one) and an error when it cannot apply (an
// answer or tombstone for an unknown id, an answer past the next round, an
// unknown kind). Duplicates are skipped everywhere; the callers differ only
// in what an error means. The primary rejects the append and returns it,
// recovery counts the record in wal.orphan_records and keeps scanning (the
// mirror stays a valid prefix across a hole), and a follower aborts the
// batch so the sender falls back to a snapshot.
//
// Replication (internal/repl) builds on three additions. Every append is
// assigned an in-memory log sequence number and handed to the Tail sink as
// an Entry — the Record plus its position — so a primary can tail its own
// journal without re-reading segment files; ReplSnapshot returns the full
// session mirror plus the position it is consistent with, the catch-up path
// for a follower that is too far behind the tail. A follower folds shipped
// state in with ApplyEntries/ApplySnapshot; because the rule skips
// duplicates, at-least-once shipping yields exactly-once state. Finally, a
// fourth record kind — control {epoch} — persists the failover epoch:
// SetEpoch journals a bump at promotion, and Fence rejects every later
// append with ErrStaleEpoch once the node learns a higher epoch exists,
// which is what keeps a deposed primary from committing writes nobody will
// replicate.
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

// Record is the JSON payload inside one frame. Its tags are the on-disk
// format; never rename them.
type Record struct {
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
	DV     int     `json:"dv,omitempty"`  // draw version the create was served under
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
	DrawVersion int    // the serving build's draw version; 0 when not journaled
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
// size the replication lag; they are not persisted on disk. On the wire the
// record's members sit beside "lsn" and "b" in one JSON object.
type Entry struct {
	LSN   int64 `json:"lsn"`
	Bytes int64 `json:"b"` // cumulative appended frame bytes at this entry
	Record
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
	rec := createRecord(&st)
	if dup, _ := l.check(rec); dup {
		return fmt.Errorf("wal: duplicate session id %q", st.ID)
	}
	return l.appendLocked(ctx, rec, true)
}

// AppendAnswerCtx journals one committed answer for id. The round index is
// assigned from the in-memory mirror, which makes replay after a crashed
// compaction idempotent (duplicate rounds are skipped on recovery). Tracing
// is as for AppendCreateCtx.
func (l *Log) AppendAnswerCtx(ctx context.Context, id string, prefer bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := Record{Kind: KindAnswer, ID: id, Prefer: prefer}
	if st, ok := l.sessions[id]; ok {
		rec.Round = len(st.Answers) + 1
	}
	if _, err := l.check(rec); err != nil {
		return err
	}
	return l.appendLocked(ctx, rec, true)
}

// AppendFinishCtx journals a tombstone for id and, when enough dead
// sessions have accumulated, compacts the log. A second tombstone is a
// no-op. Tracing is as for AppendCreateCtx.
func (l *Log) AppendFinishCtx(ctx context.Context, id, reason string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := Record{Kind: KindFinish, ID: id, Reason: reason}
	if dup, err := l.check(rec); dup || err != nil {
		return err
	}
	if err := l.appendLocked(ctx, rec, true); err != nil {
		return err
	}
	l.maybeCompactLocked()
	return nil
}

// appendLocked frames and writes one admitted record into the active
// segment, rotating first when the segment is full, then folds it into the
// mirror, hands it to the tail sink and, when sync is set, fsyncs. Batched
// replica application passes sync=false and commits many records under one
// fsync. Callers hold l.mu. The whole commit is timed as a "wal.append"
// span when ctx carries an active trace.
func (l *Log) appendLocked(ctx context.Context, rec Record, sync bool) error {
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
	l.fold(rec)
	if l.tail != nil {
		// The sink runs under l.mu, so it sees entries in commit order.
		l.tail.fn(Entry{LSN: l.lsn, Bytes: l.cumBytes, Record: rec})
	}
	if sync {
		// A failed fsync leaves the record in the OS but not necessarily on
		// the platter. Keep serving (the in-memory session is fine); the
		// failure is sticky and surfaces on /healthz.
		l.syncActive(ctx)
	}
	return nil
}

// check is the journal's transition rule: it tests rec against the session
// mirror. dup reports a record the mirror already reflects — a create for a
// known id, an answer at or below the applied round, a second tombstone, an
// epoch at or below the current one. A non-nil error reports a record that
// cannot apply — an answer or tombstone for an unknown id, an answer past
// the next round, an unknown kind. Callers hold l.mu.
func (l *Log) check(rec Record) (dup bool, err error) {
	switch rec.Kind {
	case KindCreate:
		_, dup = l.sessions[rec.ID]
		return dup, nil
	case KindControl:
		return rec.Epoch <= l.epoch, nil
	case KindAnswer, KindFinish:
	default:
		return false, fmt.Errorf("wal: record of unknown kind %d", rec.Kind)
	}
	st, ok := l.sessions[rec.ID]
	switch {
	case !ok:
		return false, fmt.Errorf("wal: record kind %d for unknown session %q", rec.Kind, rec.ID)
	case rec.Kind == KindFinish:
		return st.Finished, nil
	case rec.Round > len(st.Answers)+1:
		return false, fmt.Errorf("wal: answer gap for %q: round %d after %d applied", rec.ID, rec.Round, len(st.Answers))
	}
	return rec.Round <= len(st.Answers), nil
}

// fold applies a record check admitted (neither a duplicate nor an error)
// to the session mirror, counting tombstones toward compaction and adopting
// a raised epoch. Callers hold l.mu.
func (l *Log) fold(rec Record) {
	switch rec.Kind {
	case KindCreate:
		l.sessions[rec.ID] = &SessionState{ID: rec.ID, Algo: rec.Algo, Eps: rec.Eps, Seed: rec.Seed, Fingerprint: rec.FP, IdemKey: rec.IK, DrawVersion: rec.DV}
	case KindAnswer:
		st := l.sessions[rec.ID]
		st.Answers = append(st.Answers, rec.Prefer)
	case KindFinish:
		st := l.sessions[rec.ID]
		st.Finished, st.Reason = true, rec.Reason
		l.dead++
	case KindControl:
		l.epoch = rec.Epoch
	}
}

// replay folds one record read back from disk, at recovery or from a
// repaired segment. A duplicate — left by a compaction that crashed between
// rename and cleanup, or already applied before a quarantine — is skipped;
// a record the rule rejects is counted in wal.orphan_records and skipped, so
// the mirror stays a valid prefix across a hole. Callers hold l.mu or own l.
func (l *Log) replay(rec Record) {
	if dup, err := l.check(rec); err != nil {
		mOrphanRecords.Inc()
	} else if !dup {
		l.fold(rec)
	}
}

// createRecord renders st's create record.
func createRecord(st *SessionState) Record {
	return Record{Kind: KindCreate, ID: st.ID, Algo: st.Algo, Eps: st.Eps, Seed: st.Seed, FP: st.Fingerprint, IK: st.IdemKey, DV: st.DrawVersion}
}

// stateRecords renders st as the records that rebuild it: its create, its
// answers in round order and, when finished, its tombstone.
func stateRecords(st *SessionState) []Record {
	recs := make([]Record, 0, len(st.Answers)+2)
	recs = append(recs, createRecord(st))
	for i, a := range st.Answers {
		recs = append(recs, Record{Kind: KindAnswer, ID: st.ID, Round: i + 1, Prefer: a})
	}
	if st.Finished {
		recs = append(recs, Record{Kind: KindFinish, ID: st.ID, Reason: st.Reason})
	}
	return recs
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
	rec := Record{Kind: KindControl, Epoch: e}
	if dup, _ := l.check(rec); dup {
		return nil
	}
	if l.fencedBy > e {
		return fmt.Errorf("%w: cannot adopt epoch %d below fence %d", ErrStaleEpoch, e, l.fencedBy)
	}
	l.fencedBy = 0 // adopting e supersedes any fence at or below it
	return l.appendLocked(context.Background(), rec, true)
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
func encodeFrame(rec Record) ([]byte, error) {
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

// ApplyEntries folds shipped journal entries into this (follower) log
// through the transition rule: duplicates — creates for known ids, answers
// at rounds already applied, repeated tombstones, epochs already adopted —
// are skipped, so an at-least-once shipping protocol still yields
// exactly-once state. Admitted entries are appended to the local journal and
// the whole batch is committed under a single fsync. An entry the rule
// rejects (an answer beyond the next expected round, an answer/finish for an
// unknown id) aborts the batch with an error: the sender must resynchronize
// from a snapshot. Returns how many entries were actually applied.
func (l *Log) ApplyEntries(entries []Entry) (applied int, err error) {
	recs := make([]Record, len(entries))
	for i := range entries {
		recs[i] = entries[i].Record
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applyLocked(recs)
}

// ApplySnapshot merges a full session-state snapshot into this (follower)
// log: each state's create, answers and tombstone go through the same path
// as ApplyEntries, where the duplicate check drops what is already applied,
// so only the deltas are journaled — unknown sessions whole, known ones
// their missing answer suffix and tombstone. A sender may push a snapshot at
// every reconnect without bloating the follower's journal. Returns how many
// records were appended.
func (l *Log) ApplySnapshot(states []SessionState) (applied int, err error) {
	var recs []Record
	for i := range states {
		recs = append(recs, stateRecords(&states[i])...)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applyLocked(recs)
}

// applyLocked is the follower's side of the transition rule: it appends
// each admitted record without an fsync, skips duplicates, stops at the
// first record the rule rejects or the disk refuses, then commits whatever
// was appended under one fsync. Callers hold l.mu.
func (l *Log) applyLocked(recs []Record) (applied int, err error) {
	ctx := context.Background()
	for _, rec := range recs {
		var dup bool
		if dup, err = l.check(rec); err != nil {
			break
		}
		if dup {
			continue
		}
		if err = l.appendLocked(ctx, rec, false); err != nil {
			break
		}
		applied++
	}
	if applied > 0 {
		l.syncActive(ctx) // failure is sticky and surfaces on /healthz
		l.maybeCompactLocked()
	}
	return applied, err
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
	var recs []Record
	if l.epoch > 0 {
		// The epoch must survive compaction: a deposed primary that compacts
		// away its control record and restarts would come back believing an
		// older epoch and re-enter split brain. Write it first so recovery
		// adopts it before any session state.
		recs = append(recs, Record{Kind: KindControl, Epoch: l.epoch})
	}
	for _, id := range ids {
		recs = append(recs, stateRecords(l.sessions[id])...)
	}
	var buf []byte
	for _, rec := range recs {
		frame, err := encodeFrame(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		buf = append(buf, frame...)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: compact write: %w", err)
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
