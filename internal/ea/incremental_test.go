package ea

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/fault"
	"isrl/internal/geom"
)

// runSeeded executes one seeded EA session and returns its result. Each call
// builds a fresh EA so the RNG stream starts from the same state. With
// scratch set, the geom.inc.clip fault fails every halfspace clip, so the
// engine serves every vertex read from its scratch primitive — the scratch
// enumeration — and the run is the reference the engine must reproduce; the
// test fails if the fault never fired.
func runSeeded(t *testing.T, scratch bool, dataSeed, rngSeed int64, u []float64) core.Result {
	t.Helper()
	ds := testData(t, 250, len(u), dataSeed)
	var plan *fault.Plan
	if scratch {
		plan = fault.NewPlan(17).Set(fault.PointIncClip, fault.Spec{ErrProb: 1})
		fault.Install(plan)
		defer fault.Install(nil)
	}
	e := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(rngSeed)))
	res, err := e.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil && plan.Injections(fault.PointIncClip) == 0 {
		t.Fatal("clip fault was never exercised")
	}
	return res
}

func sameResult(t *testing.T, label string, a, b core.Result) {
	t.Helper()
	if a.PointIndex != b.PointIndex || a.Rounds != b.Rounds || a.Degraded != b.Degraded {
		t.Fatalf("%s: results diverge: point %d/%d rounds %d/%d degraded %v/%v",
			label, a.PointIndex, b.PointIndex, a.Rounds, b.Rounds, a.Degraded, b.Degraded)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("%s: trace entry %d differs: %+v vs %+v", label, i, a.Trace[i], b.Trace[i])
		}
	}
}

// The incremental engine's contract for EA is bit-identity, not mere
// closeness: vertex maintenance reproduces the scratch enumeration float for
// float and the sampling path is untouched, so a seeded session must ask the
// exact same questions and return the exact same tuple as the clip-fault
// reference run, which re-enumerates from scratch every round.
func TestEngineBitIdenticalToScratch(t *testing.T) {
	type seeded struct {
		dataSeed, rngSeed int64
		u                 []float64
	}
	rng := rand.New(rand.NewSource(7))
	var cases []seeded
	for trial := int64(0); trial < 4; trial++ {
		cases = append(cases, seeded{100 + trial, 200 + trial, geom.SampleSimplex(rng, 3+int(trial%2))})
	}
	cases = append(cases, seeded{300, 301, []float64{0.5, 0.2, 0.2, 0.1}})
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed%d_d%d", c.dataSeed, len(c.u)), func(t *testing.T) {
			inc := runSeeded(t, false, c.dataSeed, c.rngSeed, c.u)
			scr := runSeeded(t, true, c.dataSeed, c.rngSeed, c.u)
			sameResult(t, "engine vs scratch", inc, scr)
		})
	}
}

// Crash-recovery with the engine enabled: journal a prefix of answers, kill
// the session, replay the prefix into a fresh engine-backed EA, and finish
// live. The recovered run must land on the same tuple with the same trace as
// the uninterrupted one — the engine holds no state the replay cannot
// reconstruct.
func TestEAReplayRecoverIncremental(t *testing.T) {
	ds := testData(t, 250, 3, 400)
	u := []float64{0.25, 0.45, 0.3}
	user := core.SimulatedUser{Utility: u}
	newEA := func() *EA {
		return New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(401)))
	}
	drive := func(s *core.Session, stopAfter int) ([]bool, core.Result, bool) {
		var answers []bool
		for {
			pi, pj, done := s.Next()
			if done {
				res, err := s.Result()
				if err != nil {
					t.Fatal(err)
				}
				return answers, res, true
			}
			if stopAfter >= 0 && len(answers) >= stopAfter {
				s.Close()
				return answers, core.Result{}, false
			}
			ans := user.Prefer(pi, pj)
			answers = append(answers, ans)
			if err := s.Answer(ans); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Reference: uninterrupted run.
	_, want, finished := drive(core.NewSession(context.Background(), newEA(), ds, 0.1, nil), -1)
	if !finished {
		t.Fatal("reference session did not finish")
	}
	if want.Rounds < 4 {
		t.Skipf("session too short (%d rounds) to crash mid-way", want.Rounds)
	}

	// Crash after 3 answers, then recover by replaying the journal.
	prefix, _, finished := drive(core.NewSession(context.Background(), newEA(), ds, 0.1, nil), 3)
	if finished {
		t.Fatal("session finished before the simulated crash")
	}
	_, got, finished := drive(core.NewSession(context.Background(), newEA(), ds, 0.1, prefix), -1)
	if !finished {
		t.Fatal("recovered session did not finish")
	}
	sameResult(t, "recovered vs uninterrupted", got, want)
}
