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

// drawingUser answers like its User but first draws from rng, the way a caller
// that keeps using its generator after Load interleaves its own draws with
// the session's.
type drawingUser struct {
	core.User
	rng *rand.Rand
}

func (u drawingUser) Prefer(pi, pj []float64) bool {
	u.rng.Int63()
	return u.User.Prefer(pi, pj)
}

// A loaded session draws from a generator of its own, seeded by one draw
// from the caller's: it asks the same questions whether or not the caller
// keeps drawing from its generator after Load.
func TestLoadedSessionOwnsItsGenerator(t *testing.T) {
	ds := testData(t, 200, 4, 61)
	blob, err := New(ds, 0.1, smallCfg(), rand.New(rand.NewSource(62))).Agent().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	user := core.SimulatedUser{Utility: []float64{0.1, 0.4, 0.2, 0.3}}
	run := func(callerDraws bool) core.Result {
		rng := rand.New(rand.NewSource(7))
		a, err := Load(ds, 0.1, smallCfg(), blob, rng)
		if err != nil {
			t.Fatal(err)
		}
		var u core.User = user
		if callerDraws {
			u = drawingUser{user, rng}
		}
		res, err := a.Run(ds, u, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	quiet := run(false)
	if quiet.Rounds < 2 {
		t.Fatalf("session ended after %d rounds; the caller's draws need a later round to show", quiet.Rounds)
	}
	sameResult(t, "caller drawing vs idle", run(true), quiet)
}
