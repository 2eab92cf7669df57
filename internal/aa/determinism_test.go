package aa

import (
	"math/rand"
	"testing"

	"isrl/internal/core"
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
