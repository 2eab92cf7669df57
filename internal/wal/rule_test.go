package wal

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ruleSetup is the journal every transition-rule case starts from: epoch 2,
// live session s1 with two answers, and s2 tombstoned as expired.
var ruleSetup = []string{
	`{"k":4,"ep":2}`,
	`{"k":1,"id":"s1","algo":"ea","eps":0.1,"seed":7,"fp":42}`,
	`{"k":2,"id":"s1","n":1,"a":true}`,
	`{"k":2,"id":"s1","n":2}`,
	`{"k":1,"id":"s2","algo":"aa","seed":9}`,
	`{"k":3,"id":"s2","why":"expired"}`,
}

// ruleMirror is the session mirror ruleSetup folds to.
func ruleMirror() ([]SessionState, uint64) {
	return []SessionState{
		{ID: "s1", Algo: "ea", Eps: 0.1, Seed: 7, Fingerprint: 42, Answers: []bool{true, false}},
		{ID: "s2", Algo: "aa", Seed: 9, Finished: true, Reason: ReasonExpired},
	}, 2
}

// Outcomes of checking one record against the mirror.
const (
	ruleDup    = "duplicate" // already reflected: skipped everywhere
	ruleApply  = "apply"     // folded into the mirror
	ruleReject = "reject"    // cannot apply: recovery orphans it, a follower aborts
)

// TestTransitionRuleTable runs one record at a time through the three paths
// that fold journal records into a session mirror — replay at reopen,
// ApplyEntries on a follower, and RepairSegment of a quarantined segment —
// and pins that they agree on the transition rule. For each case it checks
// the resulting mirror, the wal.orphan_records / wal.appends / wal.fsyncs
// deltas and the class of the returned error.
func TestTransitionRuleTable(t *testing.T) {
	cases := []struct {
		name, rec, want string
		// mutate turns ruleMirror into the expected mirror for ruleApply.
		mutate func(states []SessionState, epoch *uint64) []SessionState
	}{
		{name: "create twice", rec: `{"k":1,"id":"s1","algo":"uh","seed":99}`, want: ruleDup},
		{name: "create new", rec: `{"k":1,"id":"s3","algo":"ea","ik":"k3"}`, want: ruleApply,
			mutate: func(s []SessionState, _ *uint64) []SessionState {
				return append(s, SessionState{ID: "s3", Algo: "ea", IdemKey: "k3"})
			}},
		{name: "answer below applied", rec: `{"k":2,"id":"s1","n":1}`, want: ruleDup},
		{name: "answer at applied", rec: `{"k":2,"id":"s1","n":2,"a":true}`, want: ruleDup},
		{name: "answer at applied+1", rec: `{"k":2,"id":"s1","n":3,"a":true}`, want: ruleApply,
			mutate: func(s []SessionState, _ *uint64) []SessionState {
				s[0].Answers = append(s[0].Answers, true)
				return s
			}},
		{name: "answer at applied+2", rec: `{"k":2,"id":"s1","n":4,"a":true}`, want: ruleReject},
		{name: "answer for finished session", rec: `{"k":2,"id":"s2","n":1,"a":true}`, want: ruleApply,
			mutate: func(s []SessionState, _ *uint64) []SessionState {
				s[1].Answers = []bool{true}
				return s
			}},
		{name: "answer for unknown id", rec: `{"k":2,"id":"ghost","n":1,"a":true}`, want: ruleReject},
		{name: "finish live session", rec: `{"k":3,"id":"s1","why":"aborted"}`, want: ruleApply,
			mutate: func(s []SessionState, _ *uint64) []SessionState {
				s[0].Finished, s[0].Reason = true, ReasonAborted
				return s
			}},
		{name: "second finish", rec: `{"k":3,"id":"s2","why":"expired"}`, want: ruleDup},
		{name: "finish for unknown id", rec: `{"k":3,"id":"ghost","why":"finished"}`, want: ruleReject},
		{name: "control below epoch", rec: `{"k":4,"ep":1}`, want: ruleDup},
		{name: "control at epoch", rec: `{"k":4,"id":"","ep":2}`, want: ruleDup},
		{name: "control above epoch", rec: `{"k":4,"ep":3}`, want: ruleApply,
			mutate: func(s []SessionState, e *uint64) []SessionState {
				*e = 3
				return s
			}},
		{name: "unknown kind", rec: `{"k":9,"id":"s1","n":3,"a":true}`, want: ruleReject},
	}

	opts := Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	for _, c := range cases {
		wantStates, wantEpoch := ruleMirror()
		if c.want == ruleApply {
			wantStates = c.mutate(wantStates, &wantEpoch)
		}
		orphans := int64(0)
		if c.want == ruleReject {
			orphans = 1
		}
		check := func(path string, l *Log, d ruleDeltas, wantOrphans, wantWrites int64) {
			t.Helper()
			states, _, epoch := l.ReplSnapshot()
			if !reflect.DeepEqual(states, wantStates) || epoch != wantEpoch {
				t.Errorf("%s via %s: mirror %+v at epoch %d, want %+v at epoch %d", c.name, path, states, epoch, wantStates, wantEpoch)
			}
			if got := d.done(); got != (ruleDeltas{orphans: wantOrphans, appends: wantWrites, fsyncs: wantWrites}) {
				t.Errorf("%s via %s: deltas %+v, want orphans %d, appends and fsyncs %d", c.name, path, got, wantOrphans, wantWrites)
			}
		}

		// Recovery: the case record follows the setup in the unsealed tail.
		dir := t.TempDir()
		writeSegment(t, dir, 1, append(append([]string(nil), ruleSetup...), c.rec)...)
		d := startDeltas()
		l, _, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("%s: recovery refused to boot: %v", c.name, err)
		}
		check("recovery", l, d, orphans, 0)
		l.Close()

		// Follower: the setup arrives as one batch, the case record as the next.
		l, _, err = Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := l.ApplyEntries(ruleEntries(t, 1, ruleSetup...)); err != nil || n != len(ruleSetup) {
			t.Fatalf("%s: setup batch applied %d of %d: %v", c.name, n, len(ruleSetup), err)
		}
		d = startDeltas()
		n, err := l.ApplyEntries(ruleEntries(t, int64(len(ruleSetup)+1), c.rec))
		wantN := 0
		if c.want == ruleApply {
			wantN = 1
		}
		if n != wantN || (err != nil) != (c.want == ruleReject) || errors.Is(err, ErrStaleEpoch) {
			t.Errorf("%s via ApplyEntries: applied %d, err %v; want %d applied, outcome %s", c.name, n, err, wantN, c.want)
		}
		check("ApplyEntries", l, d, 0, int64(wantN))
		l.Close()

		// Repair: the setup sits in sealed segment 1, the case record in sealed
		// segment 2, which is rotten on disk, so recovery quarantines it and
		// the repair is what folds the record in.
		dir = t.TempDir()
		seg1 := writeSegment(t, dir, 1, ruleSetup...)
		seg2 := writeSegment(t, dir, 2, c.rec)
		writeManifest(t, dir, seg1, seg2)
		rotten := append([]byte(nil), seg2...)
		rotten[frameHeaderLen] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, segName(2)), rotten, 0o644); err != nil {
			t.Fatal(err)
		}
		l, _, err = Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if q := l.Quarantined(); len(q) != 1 || q[0] != 2 {
			t.Fatalf("%s: quarantined %v, want [2]", c.name, q)
		}
		d = startDeltas()
		if err := l.RepairSegment(2, seg2); err != nil {
			t.Errorf("%s via RepairSegment: %v", c.name, err)
		}
		check("RepairSegment", l, d, orphans, 0)
		l.Close()
	}
}

// ruleDeltas captures the journal counters a transition changes.
type ruleDeltas struct{ orphans, appends, fsyncs int64 }

func startDeltas() ruleDeltas {
	return ruleDeltas{mOrphanRecords.Value(), mAppends.Value(), mFsyncs.Value()}
}

// done returns how far each counter moved since d was taken.
func (d ruleDeltas) done() ruleDeltas {
	now := startDeltas()
	return ruleDeltas{now.orphans - d.orphans, now.appends - d.appends, now.fsyncs - d.fsyncs}
}

// writeSegment writes the JSON record payloads as segment seq of dir and
// returns the bytes written.
func writeSegment(t *testing.T, dir string, seq int, payloads ...string) []byte {
	t.Helper()
	var data []byte
	for _, p := range payloads {
		frame, err := Frame([]byte(p), maxRecordBytes)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, frame...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(seq)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// writeManifest seals segments 1..len(segs) of dir with the given images.
func writeManifest(t *testing.T, dir string, segs ...[]byte) {
	t.Helper()
	mf := manifestFile{V: 1}
	for i, data := range segs {
		mf.Segments = append(mf.Segments, segManifest{Seq: i + 1, Len: int64(len(data)), CRC: crc32.ChecksumIEEE(data)})
	}
	raw, err := json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// ruleEntries decodes JSON record payloads into shipped entries numbered
// from lsn, the way the replication wire decodes them.
func ruleEntries(t *testing.T, lsn int64, payloads ...string) []Entry {
	t.Helper()
	out := make([]Entry, len(payloads))
	for i, p := range payloads {
		if err := json.Unmarshal([]byte(p), &out[i]); err != nil {
			t.Fatal(err)
		}
		out[i].LSN = lsn + int64(i)
	}
	return out
}
