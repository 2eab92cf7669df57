package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The segment manifest records every sealed segment's exact length and
// whole-file CRC32, written via the same temp+rename idiom the compactor
// uses. A segment seals when rotation (or compaction) stops appending to it
// forever; from that moment its bytes must never change, which is what
// makes silent bit rot detectable: recovery and the background scrubber
// re-hash sealed files against the manifest instead of trusting the disk.
//
// A sealed segment that fails verification is quarantined — renamed to
// <segment>.quarantine, never deleted — so the evidence survives for
// anti-entropy repair (internal/repl re-fetches the byte range from the
// peer) or operator forensics. The quarantine lifecycle ends one of two
// ways: RepairSegment restores a verified byte-identical copy, or a
// compaction supersedes the whole sealed history and removes the file.
const manifestName = "MANIFEST"

// quarantineSuffix is appended to a sealed segment's file name when it
// fails verification.
const quarantineSuffix = ".quarantine"

// segMeta is one manifest entry: the sealed segment's frozen size and
// whole-file checksum.
type segMeta struct {
	Len int64  `json:"len"`
	CRC uint32 `json:"crc"`
}

// matches reports whether data is byte-identical to the sealed segment m
// describes: the same length and the same whole-file CRC32.
func (m segMeta) matches(data []byte) bool {
	return int64(len(data)) == m.Len && crc32.ChecksumIEEE(data) == m.CRC
}

// manifestFile is the on-disk MANIFEST shape.
type manifestFile struct {
	V        int           `json:"v"`
	Segments []segManifest `json:"segments"`
}

type segManifest struct {
	Seq int    `json:"seq"`
	Len int64  `json:"len"`
	CRC uint32 `json:"crc"`
}

// SegmentInfo is one sealed segment's public identity: sequence number,
// manifest length and checksum, and whether the local copy is quarantined.
// The replication digest exchange ships these across the link.
type SegmentInfo struct {
	Seq         int    `json:"seq"`
	Len         int64  `json:"len"`
	CRC         uint32 `json:"crc"`
	Quarantined bool   `json:"q,omitempty"`
}

// Integrity is the journal's self-healing status block, surfaced on
// /healthz. Counters are lifetime totals for this Log instance.
type Integrity struct {
	SealedSegments      int   `json:"sealed_segments"`
	Quarantined         []int `json:"quarantined,omitempty"`
	LastScrubUnix       int64 `json:"last_scrub_unix"`
	ScrubbedSegments    int64 `json:"scrubbed_segments"`
	CorruptDetected     int64 `json:"corrupt_detected"`
	Repaired            int64 `json:"repaired"`
	TornTailTruncations int64 `json:"torn_tail_truncations"`
}

// quarantineName renders the parking name of a corrupt sealed segment.
func quarantineName(seq int) string { return segName(seq) + quarantineSuffix }

// parseQuarantineName extracts the sequence number from a quarantine file
// name.
func parseQuarantineName(name string) (int, bool) {
	base, ok := strings.CutSuffix(name, quarantineSuffix)
	if !ok {
		return 0, false
	}
	return parseSegName(base)
}

// loadManifest reads MANIFEST into the in-memory map. A missing file is an
// empty manifest; an unreadable or undecodable one is treated the same way
// (the entries regenerate at the next seal) but warned about, since losing
// the manifest downgrades sealed segments to unverifiable legacy ones.
func (l *Log) loadManifest() {
	l.manifest = make(map[int]segMeta)
	data, err := os.ReadFile(filepath.Join(l.dir, manifestName))
	if err != nil {
		if !os.IsNotExist(err) {
			l.opts.logger().Warn("wal: manifest unreadable; sealed segments unverifiable until resealed", "err", err)
		}
		return
	}
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		l.opts.logger().Warn("wal: manifest corrupt; sealed segments unverifiable until resealed", "err", err)
		return
	}
	for _, s := range mf.Segments {
		l.manifest[s.Seq] = segMeta{Len: s.Len, CRC: s.CRC}
	}
}

// saveManifestLocked writes the manifest via temp+rename (fsynced), or
// removes the file when no segment is sealed. Failures are warned, not
// fatal: a lost manifest costs verifiability, not data. Callers hold l.mu.
func (l *Log) saveManifestLocked() {
	path := filepath.Join(l.dir, manifestName)
	if len(l.manifest) == 0 {
		os.Remove(path)
		return
	}
	mf := manifestFile{V: 1}
	seqs := make([]int, 0, len(l.manifest))
	for seq := range l.manifest {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		m := l.manifest[seq]
		mf.Segments = append(mf.Segments, segManifest{Seq: seq, Len: m.Len, CRC: m.CRC})
	}
	data, err := json.Marshal(mf)
	if err != nil {
		l.opts.logger().Warn("wal: manifest encode failed", "err", err)
		return
	}
	tmp, err := os.CreateTemp(l.dir, "wal-manifest-*.tmp")
	if err != nil {
		l.opts.logger().Warn("wal: manifest write failed", "err", err)
		return
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		l.opts.logger().Warn("wal: manifest write failed", "err", err)
	}
}

// sealLocked records a freshly sealed segment in the manifest. Callers hold
// l.mu and must have synced+closed the segment already.
func (l *Log) sealLocked(seq int, length int64, crc uint32) {
	l.manifest[seq] = segMeta{Len: length, CRC: crc}
	l.saveManifestLocked()
}

// quarantineLocked parks a corrupt sealed segment under its .quarantine
// name. The manifest entry is kept — it is the repair contract: only a
// byte-identical replacement (same length, same CRC) may take the
// segment's place. Quarantine does NOT set the sticky error: the live tail
// still commits, and degrading the whole node over repairable history
// would shed traffic for nothing. Callers hold l.mu.
func (l *Log) quarantineLocked(seq int, reason string) error {
	if l.quarantined[seq] {
		return nil
	}
	if _, sealed := l.manifest[seq]; !sealed {
		return fmt.Errorf("wal: quarantine of unsealed segment %d", seq)
	}
	from := filepath.Join(l.dir, segName(seq))
	to := filepath.Join(l.dir, quarantineName(seq))
	if err := os.Rename(from, to); err != nil {
		return fmt.Errorf("wal: quarantine segment %d: %w", seq, err)
	}
	l.quarantined[seq] = true
	l.corruptSeen++
	mScrubQuarantined.Inc()
	l.opts.logger().Warn("wal: sealed segment quarantined",
		"segment", from, "reason", reason, "seq", seq)
	return nil
}

// SealedSegments returns the manifest view of every sealed segment in
// sequence order, quarantined ones flagged. This is the digest the
// replication link exchanges for anti-entropy comparison.
func (l *Log) SealedSegments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealedSegmentsLocked()
}

func (l *Log) sealedSegmentsLocked() []SegmentInfo {
	out := make([]SegmentInfo, 0, len(l.manifest))
	for seq, m := range l.manifest {
		out = append(out, SegmentInfo{Seq: seq, Len: m.Len, CRC: m.CRC, Quarantined: l.quarantined[seq]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Quarantined returns the sequence numbers currently parked under
// quarantine, sorted.
func (l *Log) Quarantined() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, 0, len(l.quarantined))
	for seq := range l.quarantined {
		out = append(out, seq)
	}
	sort.Ints(out)
	return out
}

// SegmentData reads one healthy sealed segment for serving to a peer,
// verifying it against the manifest first — a node must never "repair" its
// peer with bytes it cannot vouch for. A verification failure quarantines
// the segment on the spot and returns an error.
func (l *Log) SegmentData(seq int) ([]byte, SegmentInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m, sealed := l.manifest[seq]
	if !sealed {
		return nil, SegmentInfo{}, fmt.Errorf("wal: segment %d is not sealed", seq)
	}
	if l.quarantined[seq] {
		return nil, SegmentInfo{}, fmt.Errorf("wal: segment %d is quarantined", seq)
	}
	data, err := os.ReadFile(filepath.Join(l.dir, segName(seq)))
	if err != nil {
		return nil, SegmentInfo{}, fmt.Errorf("wal: read segment %d: %w", seq, err)
	}
	if !m.matches(data) {
		mScrubCorrupt.Inc()
		if qerr := l.quarantineLocked(seq, "manifest_mismatch"); qerr != nil {
			l.opts.logger().Warn("wal: quarantine failed", "seq", seq, "err", qerr)
		}
		return nil, SegmentInfo{}, fmt.Errorf("wal: segment %d fails manifest verification", seq)
	}
	return data, SegmentInfo{Seq: seq, Len: m.Len, CRC: m.CRC}, nil
}

// RepairSegment replaces a quarantined segment with data fetched from a
// peer. The replacement must match the manifest byte-for-byte (length and
// CRC) — anything else is rejected, so a diverged or malicious peer cannot
// rewrite history. On success the quarantine file is removed and the
// repaired records are folded back into the session mirror (idempotently;
// runtime quarantines already have them, boot-time quarantines may not).
func (l *Log) RepairSegment(seq int, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if !l.quarantined[seq] {
		return fmt.Errorf("wal: segment %d is not quarantined", seq)
	}
	m, sealed := l.manifest[seq]
	if !sealed {
		return fmt.Errorf("wal: segment %d has no manifest entry to verify against", seq)
	}
	if !m.matches(data) {
		return fmt.Errorf("wal: repair for segment %d does not match manifest (len %d/%d)", seq, len(data), m.Len)
	}
	tmp, err := os.CreateTemp(l.dir, "wal-repair-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: repair segment %d: %w", seq, err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(l.dir, segName(seq)))
	}
	if err != nil {
		return fmt.Errorf("wal: repair segment %d: %w", seq, err)
	}
	os.Remove(filepath.Join(l.dir, quarantineName(seq)))
	delete(l.quarantined, seq)
	l.repaired++
	mScrubRepaired.Inc()
	decodeRecords(data, l.replay)
	l.opts.logger().Info("wal: quarantined segment repaired from peer", "seq", seq, "bytes", len(data))
	return nil
}

// CompareDigest diffs a peer's sealed-segment digest against the local
// manifest. It returns the sequence numbers this node wants re-fetched (a
// local quarantined segment the peer holds a healthy, manifest-matching
// copy of) and the sequences where both sides look healthy at the same
// length but different checksums — divergence neither side detected
// locally, which is counted and warned but never auto-adopted: with no
// third vote there is no way to know whose bytes rotted.
func (l *Log) CompareDigest(peer []SegmentInfo) (want, divergent []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range peer {
		m, sealed := l.manifest[p.Seq]
		if !sealed || p.Quarantined {
			continue
		}
		if p.Len != m.Len || p.CRC != m.CRC {
			if !l.quarantined[p.Seq] && p.Len == m.Len {
				divergent = append(divergent, p.Seq)
				mScrubDivergent.Inc()
				l.opts.logger().Warn("wal: sealed segment diverged from peer; not auto-adopting",
					"seq", p.Seq, "local_crc", m.CRC, "peer_crc", p.CRC)
			}
			// A length mismatch means the peer laid its journal out
			// differently (snapshot-bootstrapped follower); raw-segment
			// repair cannot apply and the snapshot path is the fallback.
			continue
		}
		if l.quarantined[p.Seq] {
			want = append(want, p.Seq)
		}
	}
	return want, divergent
}

// Integrity returns the self-healing status block for /healthz.
func (l *Log) Integrity() Integrity {
	l.mu.Lock()
	defer l.mu.Unlock()
	in := Integrity{
		SealedSegments:      len(l.manifest),
		LastScrubUnix:       l.lastScrubUnix,
		ScrubbedSegments:    l.scrubbed,
		CorruptDetected:     l.corruptSeen,
		Repaired:            l.repaired,
		TornTailTruncations: l.tornTails,
	}
	for seq := range l.quarantined {
		in.Quarantined = append(in.Quarantined, seq)
	}
	sort.Ints(in.Quarantined)
	return in
}

// classifyCorruption walks a corrupt sealed segment's frames with ReadFrame
// (the same parser the replication wire uses) and names the first failure:
// an impossible length field, a mid-segment CRC failure, or a torn frame.
func classifyCorruption(data []byte) string {
	r := bytes.NewReader(data)
	for {
		_, err := ReadFrame(r, maxRecordBytes)
		switch {
		case err == nil:
			continue
		case errors.Is(err, io.EOF):
			// Every frame parsed clean, yet the whole-file hash disagrees
			// with the manifest: the damage is outside any frame payload
			// ReadFrame checks (e.g. trailing garbage).
			return "manifest_mismatch"
		case errors.Is(err, ErrFrameTooLarge):
			return "impossible_length"
		case errors.Is(err, ErrFrameChecksum):
			return "crc_mismatch"
		default:
			return "torn"
		}
	}
}
