package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// recover scans every segment in seq order, rebuilds the session mirror,
// and leaves the log ready for appends. Segments the manifest knows
// (sealed at a rotation or compaction) are verified whole-file against
// their recorded length and CRC32; a mismatch quarantines the segment —
// renamed aside, never deleted, repairable from a replication peer — and
// the scan continues, because the transition rule orphans records past the
// hole and so keeps the recovered state a valid prefix. Unsealed
// segments (the live tail, or a pre-manifest journal) keep the legacy
// discipline: the longest valid record prefix wins, the torn suffix is
// truncated away with a structured warning, and later segments are
// dropped. The journal never refuses to boot over corruption; it degrades
// and counts.
func (l *Log) recover() error {
	l.loadManifest()
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: read dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
		if seq, ok := parseQuarantineName(e.Name()); ok {
			l.quarantined[seq] = true
		}
	}
	sort.Ints(seqs)

	present := make(map[int]bool, len(seqs))
	for _, seq := range seqs {
		present[seq] = true
	}
	for seq := range l.manifest {
		if !present[seq] && !l.quarantined[seq] {
			// Sealed but gone entirely — nothing left to verify or repair
			// against once the active sequence moves past it.
			delete(l.manifest, seq)
		}
	}

	for i, seq := range seqs {
		path := filepath.Join(l.dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: read segment: %w", err)
		}
		valid := decodeRecords(data, l.replay)
		if m, sealed := l.manifest[seq]; sealed {
			// A sealed segment is never truncated: a sealed torn record from
			// a crashed write is part of the sealed bytes and must stay, or
			// the manifest CRC would lie. On bit rot, keep the valid record
			// prefix just applied (each surviving frame is individually
			// CRC-guarded), park the file for anti-entropy repair, and keep
			// scanning: later answers past the hole orphan harmlessly.
			if !m.matches(data) {
				mCorrupt.Inc()
				mScrubCorrupt.Inc()
				if err := l.quarantineLocked(seq, "recovery: manifest verification failed"); err != nil {
					return err
				}
			}
			continue
		}
		total := int64(len(data))
		if valid == total {
			continue
		}
		// Corrupted unsealed tail: truncate this segment to its valid prefix
		// and drop everything after it in the sequence.
		mCorrupt.Inc()
		mTruncBytes.Add(total - valid)
		mTornTails.Inc()
		l.tornTails++
		l.opts.logger().Warn("wal: truncating torn tail",
			"segment", path, "offset", valid, "dropped_bytes", total-valid)
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("wal: truncate corrupt tail: %w", err)
		}
		for _, later := range seqs[i+1:] {
			if info, err := os.Stat(filepath.Join(l.dir, segName(later))); err == nil {
				mTruncBytes.Add(info.Size())
			}
			os.Remove(filepath.Join(l.dir, segName(later)))
			delete(l.manifest, later)
			mSegsDropped.Inc()
		}
		seqs = seqs[:i+1]
		break
	}

	for _, st := range l.sessions {
		if !st.Finished {
			mRecovered.Inc()
			mRecoveredAns.Add(int64(len(st.Answers)))
		}
	}
	l.boot = len(l.sessions) > 0
	l.saveManifestLocked()

	// Resume appends on the highest unsealed segment; when the top of the
	// sequence is sealed or quarantined, its bytes are frozen, so open a
	// fresh successor instead of reusing the number.
	top := 0
	for _, seq := range seqs {
		if seq > top {
			top = seq
		}
	}
	for seq := range l.quarantined {
		if seq > top {
			top = seq
		}
	}
	for seq := range l.manifest {
		if seq > top {
			top = seq
		}
	}
	if top == 0 {
		return l.openSegment(1)
	}
	if _, sealed := l.manifest[top]; sealed || l.quarantined[top] {
		return l.openSegment(top + 1)
	}
	return l.openSegment(top)
}

// decodeRecords walks the valid record prefix of one segment image with
// ReadFrame — the parser the replication wire and the scrubber use —
// calling fn for each record, and returns the offset where the prefix ends.
// A torn frame, an absurd length, a checksum mismatch or a payload that is
// not a record ends the prefix; valid < len(data) signals a corrupted tail.
func decodeRecords(data []byte, fn func(Record)) (valid int64) {
	r := bytes.NewReader(data)
	for {
		payload, err := ReadFrame(r, maxRecordBytes)
		if err != nil {
			return valid
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil {
			return valid
		}
		fn(rec)
		valid = int64(len(data) - r.Len())
	}
}

// Records scans every segment in dir in sequence order and returns the raw
// valid-prefix record stream, without mutating anything on disk. Unlike
// Open it performs no truncation and no deduplication: what was physically
// appended is what comes back, so tests and tools can audit the raw log
// (e.g. assert answer rounds are strictly increasing — the exactly-once
// property).
func Records(dir string) ([]Record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	var out []Record
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			return nil, fmt.Errorf("wal: read segment: %w", err)
		}
		decodeRecords(data, func(rec Record) { out = append(out, rec) })
	}
	return out, nil
}
