package ea

import (
	"math/rand"
	"sync"
	"testing"

	"isrl/internal/core"
	"isrl/internal/geom"
)

// trainedBlob trains a small EA for a few episodes and serializes it.
func trainedBlob(t *testing.T) []byte {
	t.Helper()
	ds := testData(t, 200, 3, 51)
	rng := rand.New(rand.NewSource(52))
	e := New(ds, 0.1, smallCfg(), rng)
	users := make([][]float64, 6)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, 3)
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

// Eight sessions loaded from one shared model and run concurrently ask the
// same questions and return the same tuple as the same sessions run one at
// a time. Under -race this also proves the shared weights are only read.
func TestConcurrentLoadedSessionsMatchSerial(t *testing.T) {
	blob := trainedBlob(t)
	ds := testData(t, 200, 3, 51)
	const n = 8
	users := make([][]float64, n)
	urng := rand.New(rand.NewSource(53))
	for i := range users {
		users[i] = geom.SampleSimplex(urng, 3)
	}
	run := func(i int) (core.Result, error) {
		e, err := Load(ds, 0.1, smallCfg(), blob, rand.New(rand.NewSource(int64(100+i))))
		if err != nil {
			return core.Result{}, err
		}
		return e.Run(ds, core.SimulatedUser{Utility: users[i]}, 0.1, nil)
	}
	serial := make([]core.Result, n)
	for i := range serial {
		var err error
		if serial[i], err = run(i); err != nil {
			t.Fatal(err)
		}
	}
	conc := make([]core.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conc[i], errs[i] = run(i)
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

// loadAllocBound caps the allocations of a Load that hits the decoded-model
// cache: the EA and agent structs and the EA's generator only, since a
// loaded agent borrows its network view and scoring scratch per call.
// Measured at 3; the bound leaves slack for one more, not for a per-agent
// View (12 more) or a decode.
const loadAllocBound = 4

// Sessions loaded from one model read the same weights, carry no training
// state, and a warm Load stays within loadAllocBound.
func TestWarmLoadSharesModel(t *testing.T) {
	blob := trainedBlob(t)
	ds := testData(t, 200, 3, 51)
	rng := rand.New(rand.NewSource(1))
	first, err := Load(ds, 0.1, smallCfg(), blob, rng)
	if err != nil {
		t.Fatal(err)
	}
	var last *EA
	allocs := testing.AllocsPerRun(50, func() {
		if last, err = Load(ds, 0.1, smallCfg(), blob, rng); err != nil {
			t.Fatal(err)
		}
	})
	if &first.Agent().Main.Params()[0].W[0] != &last.Agent().Main.Params()[0].W[0] {
		t.Fatal("sessions hold separate weight copies")
	}
	if last.Agent().Target != nil {
		t.Fatal("Load built a target network")
	}
	t.Logf("warm ea.Load: %.0f allocs", allocs)
	if allocs > loadAllocBound {
		t.Fatalf("warm ea.Load allocates %.0f, bound %d", allocs, loadAllocBound)
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
	blob := trainedBlob(t)
	ds := testData(t, 200, 3, 51)
	user := core.SimulatedUser{Utility: []float64{0.2, 0.5, 0.3}}
	run := func(callerDraws bool) core.Result {
		rng := rand.New(rand.NewSource(7))
		e, err := Load(ds, 0.1, smallCfg(), blob, rng)
		if err != nil {
			t.Fatal(err)
		}
		var u core.User = user
		if callerDraws {
			u = drawingUser{user, rng}
		}
		res, err := e.Run(ds, u, 0.1, nil)
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
