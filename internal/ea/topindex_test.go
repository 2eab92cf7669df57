package ea

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/fault"
	"isrl/internal/geom"
)

// The top-1 candidate index must be invisible in EA's output: a model
// trained with the index and one trained with the dataset.top.index fault
// leaving it unbuilt (every TopPoint a full scan) serialize to the same
// bytes, and sessions served from either model on either dataset ask the
// same questions and return the same tuple. The fault must actually fire,
// or the reference run would silently be indexed too.
func TestTopIndexFaultBitIdentical(t *testing.T) {
	for _, c := range []struct {
		kind string
		n, d int
	}{
		{"anti", 600, 4},
		{"indep", 400, 3},
		{"car", 0, 3},
	} {
		t.Run(fmt.Sprintf("%s_d%d", c.kind, c.d), func(t *testing.T) {
			raw, err := dataset.Generate(c.kind, rand.New(rand.NewSource(31)), c.n, c.d)
			if err != nil {
				t.Fatal(err)
			}
			indexed, full := raw.Skyline(), raw.Skyline()
			users := make([][]float64, 12)
			urng := rand.New(rand.NewSource(32))
			for i := range users {
				users[i] = geom.SampleSimplex(urng, c.d)
			}
			train := func(ds *dataset.Dataset, faulted bool) []byte {
				t.Helper()
				var plan *fault.Plan
				if faulted {
					plan = fault.NewPlan(33).Set(fault.PointTopIndex, fault.Spec{ErrProb: 1})
					fault.Install(plan)
				}
				e := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(34)))
				fault.Install(nil)
				if plan != nil && plan.Injections(fault.PointTopIndex) != 1 {
					t.Fatalf("dataset.top.index fault fired %d times, want 1", plan.Injections(fault.PointTopIndex))
				}
				if _, err := e.Train(users); err != nil {
					t.Fatal(err)
				}
				blob, err := e.Agent().MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			blobIx, blobFull := train(indexed, false), train(full, true)
			if rows := indexed.TopIndexRows(); rows <= 0 || rows >= indexed.Len() {
				t.Fatalf("index keeps %d of %d rows; want a proper non-empty subset", rows, indexed.Len())
			}
			if rows := full.TopIndexRows(); rows != -1 {
				t.Fatalf("faulted dataset has an index of %d rows, want none", rows)
			}
			if !bytes.Equal(blobIx, blobFull) {
				t.Fatal("model trained with the index differs from the full-scan model")
			}
			for s := 0; s < 6; s++ {
				u := geom.SampleSimplex(urng, c.d)
				serve := func(ds *dataset.Dataset) core.Result {
					e, err := Load(ds, 0.1, smallCfg(), blobIx, rand.New(rand.NewSource(int64(40+s))))
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run(ds, core.SimulatedUser{Utility: u}, 0.1, nil)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				sameResult(t, fmt.Sprintf("session %d", s), serve(indexed), serve(full))
			}
		})
	}
}
