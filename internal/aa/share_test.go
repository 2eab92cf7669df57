package aa

import (
	"math/rand"
	"sync"
	"testing"

	"isrl/internal/core"
	"isrl/internal/geom"
)

// Sessions loaded from one AA model share its weights, carry no training
// state, and when run concurrently match the same sessions run one at a
// time. Under -race this also proves the shared weights are only read.
func TestConcurrentLoadedSessionsMatchSerial(t *testing.T) {
	ds := testData(t, 200, 4, 61)
	rng := rand.New(rand.NewSource(62))
	trainer := New(ds, 0.1, smallCfg(), rng)
	users := make([][]float64, 8)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, 4)
	}
	if _, err := trainer.Train(users[:4]); err != nil {
		t.Fatal(err)
	}
	blob, err := trainer.Agent().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	load := func(i int) *AA {
		a, err := Load(ds, 0.1, smallCfg(), blob, rand.New(rand.NewSource(int64(200+i))))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	x, y := load(0), load(1)
	if &x.Agent().Main.Params()[0].W[0] != &y.Agent().Main.Params()[0].W[0] {
		t.Fatal("sessions hold separate weight copies")
	}
	if x.Agent().Target != nil {
		t.Fatal("Load built a target network")
	}

	serial := make([]core.Result, len(users))
	for i := range serial {
		if serial[i], err = load(i).Run(ds, core.SimulatedUser{Utility: users[i]}, 0.1, nil); err != nil {
			t.Fatal(err)
		}
	}
	sessions := make([]*AA, len(users))
	for i := range sessions {
		sessions[i] = load(i)
	}
	conc := make([]core.Result, len(users))
	errs := make([]error, len(users))
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conc[i], errs[i] = sessions[i].Run(ds, core.SimulatedUser{Utility: users[i]}, 0.1, nil)
		}(i)
	}
	wg.Wait()
	for i := range conc {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameResult(t, "concurrent vs serial", conc[i], serial[i])
	}
}
