package ea

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/geom"
)

// A seeded EA session is a fixed function of its dataset, seed and user:
// vertex enumeration, chained sampling and candidate scoring all run in a
// fixed order on the session's goroutine. The pinned point, round count and
// question trace catch any change to that order or to the draws.
func TestRunMatchesGolden(t *testing.T) {
	ds := testData(t, 200, 3, 41)
	e := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(42)))
	res, err := e.Run(ds, core.SimulatedUser{Utility: []float64{0.55, 0.3, 0.15}}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.QA{
		{I: 1, J: 19, PreferredI: true},
		{I: 37, J: 67, PreferredI: false},
		{I: 0, J: 45, PreferredI: false},
	}
	if res.PointIndex != 12 || res.Rounds != 3 || res.Degraded {
		t.Fatalf("got point %d in %d rounds (degraded %v), want point 12 in 3 rounds",
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

// Training (Algorithm 1) is a fixed function of its dataset, seed and
// training vectors: ε-greedy choices, hit-and-run samples, pair draws and replay
// minibatches all draw from the one seeded rng in a fixed order. The pinned
// step count, mean episode length, model hash and the trained agent's greedy
// session catch any change to that order, to the replay contents or to the
// gradient steps.
func TestTrainMatchesGolden(t *testing.T) {
	ds := testData(t, 200, 3, 71)
	rng := rand.New(rand.NewSource(72))
	e := New(ds, 0.1, smallCfg(), rng)
	users := make([][]float64, 40)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, 3)
	}
	stats, err := e.Train(users)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSteps != 169 || stats.AvgRounds != 4.225 {
		t.Fatalf("trained %d steps, %v rounds on average; want 169 and 4.225", stats.TotalSteps, stats.AvgRounds)
	}
	blob, err := e.Agent().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	if got := h.Sum64(); got != 0x3212af3b5604adaa {
		t.Fatalf("model hash %x, want 3212af3b5604adaa", got)
	}
	res, err := e.Run(ds, core.SimulatedUser{Utility: []float64{0.55, 0.3, 0.15}}, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.QA{
		{I: 0, J: 66, PreferredI: true},
		{I: 11, J: 35, PreferredI: true},
		{I: 11, J: 17, PreferredI: true},
		{I: 11, J: 45, PreferredI: true},
		{I: 0, J: 11, PreferredI: false},
		{I: 7, J: 22, PreferredI: true},
	}
	if res.PointIndex != 11 || res.Rounds != 6 || res.Degraded {
		t.Fatalf("got point %d in %d rounds (degraded %v), want point 11 in 6 rounds",
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
