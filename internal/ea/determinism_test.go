package ea

import (
	"math/rand"
	"testing"

	"isrl/internal/core"
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
		{I: 1, J: 5, PreferredI: false},
		{I: 16, J: 19, PreferredI: false},
		{I: 19, J: 48, PreferredI: false},
		{I: 0, J: 56, PreferredI: true},
		{I: 0, J: 48, PreferredI: true},
		{I: 0, J: 5, PreferredI: false},
		{I: 0, J: 12, PreferredI: false},
	}
	if res.PointIndex != 12 || res.Rounds != 7 || res.Degraded {
		t.Fatalf("got point %d in %d rounds (degraded %v), want point 12 in 7 rounds",
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
