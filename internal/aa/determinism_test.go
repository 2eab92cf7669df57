package aa

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/fault"
	"isrl/internal/geom"
)

// A seeded AA session is a fixed function of its dataset, seed and user: the
// LP probes and dataset.Scores run in a fixed order on the session's
// goroutine. The pinned point, round count and question trace catch any
// change to that order.
func TestRunMatchesGolden(t *testing.T) {
	ds := testData(t, 300, 3, 51)
	a := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(52)))
	res, err := a.Run(ds, core.SimulatedUser{Utility: []float64{0.2, 0.45, 0.35}}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.QA{
		{I: 7, J: 8, PreferredI: false},
		{I: 36, J: 62, PreferredI: true},
		{I: 13, J: 48, PreferredI: false},
		{I: 4, J: 56, PreferredI: true},
		{I: 4, J: 86, PreferredI: true},
		{I: 28, J: 135, PreferredI: true},
	}
	if res.PointIndex != 8 || res.Rounds != 6 || res.Degraded {
		t.Fatalf("got point %d in %d rounds (degraded %v), want point 8 in 6 rounds",
			res.PointIndex, res.Rounds, res.Degraded)
	}
	if len(res.Trace) != len(want) {
		t.Fatalf("trace has %d entries, want %d: %+v", len(res.Trace), len(want), res.Trace)
	}
	for i := range want {
		if res.Trace[i] != want[i] {
			t.Fatalf("trace entry %d = %+v, want %+v", i, res.Trace[i], want[i])
		}
	}
}

// Training (Algorithm 3) is a fixed function of its dataset, seed and
// training vectors: ε-greedy choices, random candidate pairs and replay
// minibatches all draw from the one seeded rng in a fixed order. The pinned
// step count, mean episode length, model hash and the trained agent's greedy
// session catch any change to that order, to the replay contents or to the
// gradient steps. The hash also pins the warm LP history: a cut probe the
// inner ball certifies skips its LPs, which leaves the base solver in a
// different basis for the rectangle LPs, and their last bits feed the DQN
// state.
func TestTrainMatchesGolden(t *testing.T) {
	checkTrainGolden(t, 0xce2702d0f3c45771)
}

// With geom.inc.witness failing every outer-rectangle pass, each rectangle
// objective is re-solved by the warm LP instead of served from its witness.
// Reused rectangle values differ from re-solved ones only in the last bits,
// which feed the DQN state, so the steps, episode lengths and greedy session
// match TestTrainMatchesGolden's and only the hash differs.
func TestTrainWitnessFaultMatchesGolden(t *testing.T) {
	plan := fault.NewPlan(83).Set(fault.PointIncWitness, fault.Spec{ErrProb: 1})
	fault.Install(plan)
	defer fault.Install(nil)
	checkTrainGolden(t, 0x6eec6dd290e1ecc9)
	if plan.Injections(fault.PointIncWitness) == 0 {
		t.Fatal("witness fault was never injected")
	}
}

// checkTrainGolden trains the pinned AA run and checks its steps, mean
// episode length, greedy session and model hash against wantHash.
func checkTrainGolden(t *testing.T, wantHash uint64) {
	t.Helper()
	ds := testData(t, 300, 3, 81)
	rng := rand.New(rand.NewSource(82))
	a := New(ds, 0.1, smallCfg(), rng)
	users := make([][]float64, 40)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, 3)
	}
	stats, err := a.Train(users)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSteps != 267 || stats.AvgRounds != 6.675 {
		t.Fatalf("trained %d steps, %v rounds on average; want 267 and 6.675", stats.TotalSteps, stats.AvgRounds)
	}
	blob, err := a.Agent().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	if got := h.Sum64(); got != wantHash {
		t.Fatalf("model hash %x, want %x", got, wantHash)
	}
	res, err := a.Run(ds, core.SimulatedUser{Utility: []float64{0.2, 0.45, 0.35}}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.QA{
		{I: 6, J: 7, PreferredI: true},
		{I: 19, J: 52, PreferredI: false},
		{I: 52, J: 126, PreferredI: true},
		{I: 29, J: 52, PreferredI: true},
	}
	if res.PointIndex != 0 || res.Rounds != 4 || res.Degraded {
		t.Fatalf("got point %d in %d rounds (degraded %v), want point 0 in 4 rounds",
			res.PointIndex, res.Rounds, res.Degraded)
	}
	if len(res.Trace) != len(want) {
		t.Fatalf("trace has %d entries, want %d: %+v", len(res.Trace), len(want), res.Trace)
	}
	for i := range want {
		if res.Trace[i] != want[i] {
			t.Fatalf("trace entry %d = %+v, want %+v", i, res.Trace[i], want[i])
		}
	}
}
