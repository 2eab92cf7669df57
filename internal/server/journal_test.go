package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"isrl/internal/baselines"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/fault"
	"isrl/internal/wal"
)

// seededFactory builds a per-session UH-Simplex from the journaled seed —
// the determinism contract crash recovery relies on.
func seededFactory() AlgorithmFactory {
	return func(seed int64) core.Algorithm {
		return baselines.NewUHSimplex(baselines.UHConfig{}, rand.New(rand.NewSource(seed)))
	}
}

func journalDataset() *dataset.Dataset {
	return dataset.Anticorrelated(rand.New(rand.NewSource(1)), 400, 3).Skyline()
}

// answerLoop drives state to completion with the simulated user, returning
// the raw body of the final (done) response.
func answerLoop(t *testing.T, srv *Server, id string, state statePayload, truth core.User) []byte {
	t.Helper()
	var body []byte
	for rounds := 0; !state.Done; rounds++ {
		if rounds > 300 {
			t.Fatal("session did not finish")
		}
		if state.Question == nil {
			t.Fatalf("no question and not done: %+v", state)
		}
		prefer := truth.Prefer(state.Question.First, state.Question.Second)
		rec, next := doJSON(t, srv, http.MethodPost, "/sessions/"+id+"/answer", answerPayload{PreferFirst: prefer})
		if rec.Code != http.StatusOK {
			t.Fatalf("answer status %d: %s", rec.Code, rec.Body.String())
		}
		state, body = next, rec.Body.Bytes()
	}
	return body
}

// The headline crash-safety property: a server restarted mid-session from
// its journal re-delivers the exact pending question, and the replayed
// session's final response is byte-identical to an uninterrupted run with
// the same seed and answers.
func TestJournalKillAndRestartRecoversSession(t *testing.T) {
	ds := journalDataset()
	truth := core.SimulatedUser{Utility: []float64{0.3, 0.4, 0.3}}

	// Uninterrupted baseline (same base seed, no journal).
	srvA := New(ds, 0.1, seededFactory())
	rec, state := doJSON(t, srvA, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("baseline create: %d", rec.Code)
	}
	wantFinal := answerLoop(t, srvA, state.ID, state, truth)

	// Interrupted run: journal attached, killed after three answers.
	dir := t.TempDir()
	log1, states, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvB := New(ds, 0.1, seededFactory(), WithJournal(log1))
	if n := srvB.Recover(states); n != 0 {
		t.Fatalf("fresh journal recovered %d sessions", n)
	}
	rec, state = doJSON(t, srvB, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	id := state.ID
	for i := 0; i < 3; i++ {
		prefer := truth.Prefer(state.Question.First, state.Question.Second)
		rec, state = doJSON(t, srvB, http.MethodPost, "/sessions/"+id+"/answer", answerPayload{PreferFirst: prefer})
		if rec.Code != http.StatusOK {
			t.Fatalf("answer %d: %d", i, rec.Code)
		}
	}
	if state.Done || state.Question == nil {
		t.Fatalf("session finished too fast for the test: %+v", state)
	}
	pending := state.Question

	// Kill: no graceful shutdown, no tombstones — srvB simply stops being
	// driven, exactly like a SIGKILL. A new process opens the same dir.
	log2, states2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("restart open: %v", err)
	}
	defer log2.Close()
	srvC := New(ds, 0.1, seededFactory(), WithJournal(log2))
	if n := srvC.Recover(states2); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}

	// The restarted server re-delivers the same pending question.
	rec, state = doJSON(t, srvC, http.MethodGet, "/sessions/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get after restart: %d: %s", rec.Code, rec.Body.String())
	}
	if state.Question == nil {
		t.Fatalf("no question after restart: %+v", state)
	}
	if fmt.Sprint(state.Question.First) != fmt.Sprint(pending.First) ||
		fmt.Sprint(state.Question.Second) != fmt.Sprint(pending.Second) {
		t.Fatalf("restart re-delivered a different question:\n got %v vs %v\nwant %v vs %v",
			state.Question.First, state.Question.Second, pending.First, pending.Second)
	}

	// Finishing the replayed session matches the uninterrupted run byte
	// for byte.
	gotFinal := answerLoop(t, srvC, id, state, truth)
	if !bytes.Equal(gotFinal, wantFinal) {
		t.Errorf("replayed final response differs from uninterrupted run:\n got: %s\nwant: %s", gotFinal, wantFinal)
	}
}

// Finished sessions are tombstoned: a restart must not resurrect them.
func TestJournalRecoverRefusesFinishedSessions(t *testing.T) {
	ds := journalDataset()
	truth := core.SimulatedUser{Utility: []float64{0.2, 0.5, 0.3}}
	dir := t.TempDir()
	log1, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ds, 0.1, seededFactory(), WithJournal(log1))
	rec, state := doJSON(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	id := state.ID
	answerLoop(t, srv, id, state, truth)

	log2, states, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	srv2 := New(ds, 0.1, seededFactory(), WithJournal(log2))
	if n := srv2.Recover(states); n != 0 {
		t.Fatalf("resurrected %d finished sessions", n)
	}
	if rec, _ := doJSON(t, srv2, http.MethodGet, "/sessions/"+id, nil); rec.Code != http.StatusNotFound {
		t.Errorf("finished session served after restart: %d", rec.Code)
	}
	// New ids must not collide with journaled ones.
	rec, state = doJSON(t, srv2, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create after recovery: %d", rec.Code)
	}
	if state.ID == id {
		t.Errorf("journaled id %q reused", id)
	}
}

// Regression: the TTL sweep must journal an expiry tombstone, or a restart
// resurrects sessions the sweeper already killed.
func TestJournalExpiryTombstoneBlocksResurrection(t *testing.T) {
	ds := journalDataset()
	dir := t.TempDir()
	log1, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ds, 0.1, seededFactory(), WithJournal(log1), WithSessionTTL(time.Minute))
	clock := time.Now()
	srv.now = func() time.Time { return clock }
	rec, state := doJSON(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	id := state.ID
	clock = clock.Add(2 * time.Minute)
	if n := srv.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}

	log2, states, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	for _, st := range states {
		if st.ID == id && (!st.Finished || st.Reason != wal.ReasonExpired) {
			t.Fatalf("expiry not tombstoned: %+v", st)
		}
	}
	srv2 := New(ds, 0.1, seededFactory(), WithJournal(log2))
	if n := srv2.Recover(states); n != 0 {
		t.Fatalf("restart resurrected %d expired sessions", n)
	}
	if rec, _ := doJSON(t, srv2, http.MethodGet, "/sessions/"+id, nil); rec.Code != http.StatusNotFound {
		t.Errorf("expired session served after restart: %d", rec.Code)
	}
}

// Sessions journaled against a different dataset must be refused: replaying
// their trace over other points would silently produce a different search.
func TestJournalRecoverRefusesFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	log1, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log1.AppendCreateCtx(context.Background(), wal.SessionState{ID: "s1", Algo: "UH-Simplex", Eps: 0.1, Seed: 2, Fingerprint: 12345}); err != nil {
		t.Fatal(err)
	}
	log1.Close()

	log2, states, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	srv, reg, _ := obsServer(t, WithJournal(log2))
	if n := srv.Recover(states); n != 0 {
		t.Fatalf("recovered %d sessions across datasets", n)
	}
	if got := reg.Counter("sessions.recovery_skipped").Value(); got != 1 {
		t.Errorf("recovery_skipped = %d, want 1", got)
	}
}

// A session journaled under another draw version would replay its answers
// against other questions, so recovery refuses it and counts it as skipped.
// A create without the field is version 0, from before draws were
// versioned; the same create at the current version comes back.
func TestJournalRecoverRefusesDrawVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	log1, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := dataset.Anticorrelated(rand.New(rand.NewSource(1)), 500, 3).Skyline().Fingerprint()
	for _, st := range []wal.SessionState{
		{ID: "s1", Algo: "UH-Simplex", Eps: 0.1, Seed: 2, Fingerprint: fp},
		{ID: "s2", Algo: "UH-Simplex", Eps: 0.1, Seed: 2, Fingerprint: fp, DrawVersion: core.DrawVersion},
	} {
		if err := log1.AppendCreateCtx(context.Background(), st); err != nil {
			t.Fatal(err)
		}
	}
	log1.Close()

	log2, states, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	srv, reg, _ := obsServer(t, WithJournal(log2))
	if n := srv.Recover(states); n != 1 {
		t.Fatalf("recovered %d sessions, want only the current-version one", n)
	}
	if got := reg.Counter("sessions.recovery_skipped").Value(); got != 1 {
		t.Errorf("recovery_skipped = %d, want 1", got)
	}
	if rec := get(t, srv, "/sessions/s1"); rec.Code != http.StatusNotFound {
		t.Errorf("version-0 session served after recovery: %d", rec.Code)
	}
	if rec := get(t, srv, "/sessions/s2"); rec.Code != http.StatusOK {
		t.Errorf("current-version session not recovered: %d", rec.Code)
	}
}

// With -max-sessions saturated, creates shed with 429 + Retry-After while
// existing sessions keep answering.
func TestMaxSessionsShedsWith429(t *testing.T) {
	srv, reg, _ := obsServer(t, WithMaxSessions(2))
	truth := core.SimulatedUser{Utility: []float64{0.2, 0.5, 0.3}}

	rec1, st1 := doJSON(t, srv, http.MethodPost, "/sessions", nil)
	rec2, _ := doJSON(t, srv, http.MethodPost, "/sessions", nil)
	if rec1.Code != http.StatusCreated || rec2.Code != http.StatusCreated {
		t.Fatalf("creates under capacity: %d, %d", rec1.Code, rec2.Code)
	}
	rec3, _ := doJSON(t, srv, http.MethodPost, "/sessions", nil)
	if rec3.Code != http.StatusTooManyRequests {
		t.Fatalf("create at capacity = %d, want 429", rec3.Code)
	}
	if rec3.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if got := reg.Counter("server.shed.max_sessions").Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	// The saturated server still serves existing sessions.
	prefer := truth.Prefer(st1.Question.First, st1.Question.Second)
	rec, _ := doJSON(t, srv, http.MethodPost, "/sessions/"+st1.ID+"/answer", answerPayload{PreferFirst: prefer})
	if rec.Code != http.StatusOK {
		t.Errorf("answer at create-capacity = %d, want 200", rec.Code)
	}
	// Finishing or aborting a session frees a slot.
	rec, _ = doJSON(t, srv, http.MethodDelete, "/sessions/"+st1.ID, nil)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("abort: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Errorf("create after freeing a slot = %d, want 201", rec.Code)
	}
}

// A full answer-work queue sheds with 503 + Retry-After instead of stacking
// goroutines behind slow geometry.
func TestAnswerQueueShedsWhenFull(t *testing.T) {
	srv, reg, _ := obsServer(t, WithAnswerQueue(1))
	// Occupy the single slot directly (a request stuck in slow geometry).
	srv.work <- struct{}{}
	defer func() { <-srv.work }()

	rec, _ := doJSON(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("create with full queue = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed 503 missing Retry-After")
	}
	if got := reg.Counter("server.shed.queue_full").Value(); got != 1 {
		t.Errorf("queue shed counter = %d, want 1", got)
	}
	// Metrics and health stay reachable under overload.
	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz under overload = %d", rec.Code)
	}
}

// Retry-After jitter: values spread over more than one bucket (no retry
// lockstep) while staying within +-20% of the base.
func TestRetryAfterJitterSpreads(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		v := retryAfter()
		if v < 1 || v > 2 {
			t.Fatalf("retryAfter() = %d outside [1,2]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Error("retryAfter() never jittered away from a single value")
	}
}

// Injected fsync failures surface on /healthz as a degraded status.
func TestHealthzSurfacesFsyncFaults(t *testing.T) {
	dir := t.TempDir()
	log1, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log1.Close()
	srv, _, _ := obsServer(t, WithJournal(log1))

	rec := get(t, srv, "/healthz")
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"status":"ok"`)) {
		t.Fatalf("healthy healthz: %s", rec.Body.String())
	}

	fault.Install(fault.NewPlan(1).Set(fault.PointWALSync, fault.Spec{ErrProb: 1}))
	defer fault.Install(nil)
	if rec, _ := doJSON(t, srv, http.MethodPost, "/sessions", nil); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	rec = get(t, srv, "/healthz")
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"status":"degraded"`)) {
		t.Errorf("healthz after fsync fault not degraded: %s", rec.Body.String())
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"fsync_errors":1`)) {
		t.Errorf("healthz missing fsync error count: %s", rec.Body.String())
	}
}

// Chaos: kill-and-recover loops under injected disk failure. Every restart
// must boot (longest-valid-prefix recovery), re-deliver a consistent
// question, and never panic — answers lost to injected write faults may
// shorten the replayed prefix, which is exactly the at-most-once contract.
func TestChaosKillRecoverUnderDiskFaults(t *testing.T) {
	ds := journalDataset()
	truth := core.SimulatedUser{Utility: []float64{0.25, 0.45, 0.3}}
	dir := t.TempDir()

	plan := fault.NewPlan(99).
		Set(fault.PointWALWrite, fault.Spec{TornProb: 0.05, ErrProb: 0.05}).
		Set(fault.PointWALSync, fault.Spec{ErrProb: 0.1})
	fault.Install(plan)
	defer fault.Install(nil)

	id := ""
	for generation := 0; generation < 5; generation++ {
		log, states, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("generation %d: journal refused to boot: %v", generation, err)
		}
		srv := New(ds, 0.1, seededFactory(), WithJournal(log))
		srv.Recover(states)

		var state statePayload
		if id != "" {
			rec, st := doJSON(t, srv, http.MethodGet, "/sessions/"+id, nil)
			switch rec.Code {
			case http.StatusOK:
				state = st
			case http.StatusNotFound:
				id = "" // create lost to an injected fault; start over
			default:
				t.Fatalf("generation %d: get: %d: %s", generation, rec.Code, rec.Body.String())
			}
		}
		if id == "" {
			rec, st := doJSON(t, srv, http.MethodPost, "/sessions", nil)
			if rec.Code != http.StatusCreated {
				t.Fatalf("generation %d: create: %d", generation, rec.Code)
			}
			id, state = st.ID, st
		}
		// Drive a few rounds under fire.
		for i := 0; i < 3 && !state.Done; i++ {
			if state.Question == nil {
				t.Fatalf("generation %d: no question, not done: %+v", generation, state)
			}
			prefer := truth.Prefer(state.Question.First, state.Question.Second)
			r, st := doJSON(t, srv, http.MethodPost, "/sessions/"+id+"/answer", answerPayload{PreferFirst: prefer})
			if r.Code != http.StatusOK {
				t.Fatalf("generation %d: answer: %d: %s", generation, r.Code, r.Body.String())
			}
			state = st
		}
		if state.Done {
			id = "" // start a fresh session next generation
		}
		// Kill: abandon srv and log without shutdown.
	}
}
