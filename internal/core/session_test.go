package core

import (
	"context"
	"errors"
	"testing"

	"isrl/internal/dataset"
	"isrl/internal/geom"
	"isrl/internal/vec"
)

// fixedAlgorithm asks a scripted sequence of questions through the User and
// returns the index of the tuple the user preferred most recently.
type fixedAlgorithm struct {
	pairs [][2]int
}

func (f fixedAlgorithm) Name() string { return "fixed" }

func (f fixedAlgorithm) Run(ds *dataset.Dataset, user User, eps float64, obs Observer) (Result, error) {
	last := 0
	var trace []QA
	for i, pr := range f.pairs {
		prefI := user.Prefer(ds.Points[pr[0]], ds.Points[pr[1]])
		if prefI {
			last = pr[0]
		} else {
			last = pr[1]
		}
		trace = append(trace, QA{I: pr[0], J: pr[1], PreferredI: prefI})
		if obs != nil {
			obs.Round(i+1, nil)
		}
	}
	return Result{PointIndex: last, Point: ds.Points[last], Rounds: len(f.pairs), Trace: trace}, nil
}

func sessionData() *dataset.Dataset {
	return &dataset.Dataset{Points: [][]float64{
		{0.9, 0.1}, {0.1, 0.9}, {0.5, 0.5},
	}}
}

func TestSessionFullExchange(t *testing.T) {
	ds := sessionData()
	s := NewSession(context.Background(), fixedAlgorithm{pairs: [][2]int{{0, 1}, {2, 0}}}, ds, 0.1, nil)

	// Question 1.
	pi, pj, done := s.Next()
	if done {
		t.Fatal("finished before any question")
	}
	if !vec.Equal(pi, ds.Points[0], 0) || !vec.Equal(pj, ds.Points[1], 0) {
		t.Fatalf("q1 = %v vs %v", pi, pj)
	}
	// Next without answering re-delivers the same question.
	pi2, _, _ := s.Next()
	if &pi2[0] != &pi[0] {
		t.Error("pending question must be re-delivered")
	}
	if err := s.Answer(true); err != nil {
		t.Fatal(err)
	}
	// Question 2: answer "second" (tuple 0).
	if _, _, done := s.Next(); done {
		t.Fatal("finished early")
	}
	if err := s.Answer(false); err != nil {
		t.Fatal(err)
	}
	if _, _, done := s.Next(); !done {
		t.Fatal("expected completion")
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.PointIndex != 0 || res.Rounds != 2 {
		t.Errorf("result = %+v", res)
	}
}

func TestSessionAnswerWithoutQuestion(t *testing.T) {
	s := NewSession(context.Background(), fixedAlgorithm{pairs: [][2]int{{0, 1}}}, sessionData(), 0.1, nil)
	defer s.Close()
	if err := s.Answer(true); err == nil {
		t.Error("Answer before Next must error")
	}
}

func TestSessionResultWithPendingQuestion(t *testing.T) {
	s := NewSession(context.Background(), fixedAlgorithm{pairs: [][2]int{{0, 1}}}, sessionData(), 0.1, nil)
	defer s.Close()
	if _, _, done := s.Next(); done {
		t.Fatal("expected a question")
	}
	if _, err := s.Result(); err == nil {
		t.Error("Result with a pending question must error")
	}
}

func TestSessionClose(t *testing.T) {
	s := NewSession(context.Background(), fixedAlgorithm{pairs: [][2]int{{0, 1}, {1, 2}}}, sessionData(), 0.1, nil)
	if _, _, done := s.Next(); done {
		t.Fatal("expected a question")
	}
	if err := s.Answer(true); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Result(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("err = %v, want ErrSessionClosed", err)
	}
	// Idempotent close.
	s.Close()
}

func TestSessionZeroQuestionAlgorithm(t *testing.T) {
	s := NewSession(context.Background(), fixedAlgorithm{}, sessionData(), 0.1, nil)
	if _, _, done := s.Next(); !done {
		t.Fatal("no-question algorithm must finish immediately")
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

// Session must work with a real algorithm end to end; a simulated answerer
// drives it from the application side.
func TestSessionWithRealAlgorithmShape(t *testing.T) {
	ds := &dataset.Dataset{Points: geom.SimplexVertices(3)}
	// Simple scripted algorithm standing in for EA (core cannot import ea —
	// the cross-package integration lives in the root api tests).
	s := NewSession(context.Background(), fixedAlgorithm{pairs: [][2]int{{0, 1}, {1, 2}, {0, 2}}}, ds, 0.1, nil)
	truth := SimulatedUser{Utility: []float64{0.2, 0.3, 0.5}}
	for {
		pi, pj, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(truth.Prefer(pi, pj)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

// Replay recovery: a session rebuilt from a recorded answer prefix must
// re-deliver exactly the question the interrupted run had pending, and its
// final Result must be identical to an uninterrupted run fed the same
// answers — the determinism invariant the crash-recovery journal rests on.
func TestReplaySessionRecoversMidSession(t *testing.T) {
	ds := sessionData()
	pairs := [][2]int{{0, 1}, {2, 0}, {1, 2}}
	answers := []bool{true, false, true}

	// Uninterrupted baseline.
	base := NewSession(context.Background(), fixedAlgorithm{pairs: pairs}, ds, 0.1, nil)
	for _, a := range answers {
		if _, _, done := base.Next(); done {
			t.Fatal("baseline finished early")
		}
		if err := base.Answer(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, done := base.Next(); !done {
		t.Fatal("baseline not done")
	}
	want, err := base.Result()
	if err != nil {
		t.Fatal(err)
	}

	// "Crash" after two committed answers; replay the prefix.
	s := NewSession(context.Background(), fixedAlgorithm{pairs: pairs}, ds, 0.1, answers[:2])
	pi, pj, done := s.Next()
	if done {
		t.Fatal("replayed session finished before the pending question")
	}
	wi, wj := ds.Points[pairs[2][0]], ds.Points[pairs[2][1]]
	if !vec.Equal(pi, wi, 0) || !vec.Equal(pj, wj, 0) {
		t.Fatalf("replayed session re-delivered %v vs %v, want %v vs %v", pi, pj, wi, wj)
	}
	if err := s.Answer(answers[2]); err != nil {
		t.Fatal(err)
	}
	if _, _, done := s.Next(); !done {
		t.Fatal("replayed session not done")
	}
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.PointIndex != want.PointIndex || got.Rounds != want.Rounds {
		t.Errorf("replayed result %+v != baseline %+v", got, want)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace length %d != %d", len(got.Trace), len(want.Trace))
	}
	for i := range got.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Errorf("trace[%d] = %+v != %+v", i, got.Trace[i], want.Trace[i])
		}
	}
}

// A replay prefix longer than the algorithm needs (the crash lost the
// finish tombstone, not answers) finishes immediately instead of hanging.
func TestReplaySessionOverlongPrefixFinishes(t *testing.T) {
	s := NewSession(context.Background(), fixedAlgorithm{pairs: [][2]int{{0, 1}}}, sessionData(), 0.1, []bool{true, false, true})
	if _, _, done := s.Next(); !done {
		t.Fatal("overlong prefix should complete the session")
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
}
