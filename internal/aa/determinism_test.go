package aa

import (
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/par"
)

// A seeded AA session must produce the identical Result for any worker
// count. The LP probes run serially on the engine, so AA's only worker-count
// dependence is dataset.Scores, whose chunks each own a disjoint index range.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) core.Result {
		defer par.SetMaxWorkers(par.SetMaxWorkers(workers))
		ds := testData(t, 300, 3, 51)
		a := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(52)))
		res, err := a.Run(ds, core.SimulatedUser{Utility: []float64{0.2, 0.45, 0.35}}, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	many := run(8)
	if one.PointIndex != many.PointIndex || one.Rounds != many.Rounds {
		t.Fatalf("workers=1 got point %d in %d rounds; workers=8 got point %d in %d rounds",
			one.PointIndex, one.Rounds, many.PointIndex, many.Rounds)
	}
	for i := range one.Trace {
		if one.Trace[i] != many.Trace[i] {
			t.Fatalf("trace entry %d differs: %+v vs %+v", i, one.Trace[i], many.Trace[i])
		}
	}
}
