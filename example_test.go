package isrl_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"

	"isrl"
	"isrl/client"
)

// Example_quickstart shows the minimal end-to-end flow: generate data,
// train the exact algorithm, and run one interactive session against a
// simulated user. (Compiled as documentation; see examples/quickstart for a
// runnable program.)
func Example_quickstart() {
	rng := rand.New(rand.NewSource(1))
	ds := isrl.Anticorrelated(rng, 2000, 3).Skyline()

	agent := isrl.NewEA(ds, 0.1, isrl.EAConfig{}, rng)
	if _, err := agent.Train(isrl.TrainVectors(rng, 3, 100)); err != nil {
		panic(err)
	}

	user := isrl.SimulatedUser{Utility: []float64{0.5, 0.3, 0.2}}
	res, err := agent.Run(ds, user, 0.1, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Rounds <= 200) // certified within eps after few questions
	// Output: true
}

// Example_customUser shows how to plug a real questioner into any
// algorithm: implement isrl.User, optionally wrapped for auditing.
func Example_customUser() {
	rng := rand.New(rand.NewSource(2))
	ds := isrl.SyntheticCar(rng).Skyline()

	// Any type with Prefer(pi, pj []float64) bool is a User. Production
	// code would ask a human; here a fixed rule stands in.
	favorCheap := isrl.UserFunc(func(pi, pj []float64) bool {
		return pi[0] >= pj[0] // always pick the more affordable car
	})
	audited := &isrl.RecordingUser{Inner: favorCheap}

	alg := isrl.NewUHSimplex(isrl.UHConfig{}, rng)
	res, err := alg.Run(ds, audited, 0.15, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(audited.Record) >= res.Rounds)
	// Output: true
}

// Example_resilientClient runs a full session through the client SDK: the
// server side is the same handler isrl-serve mounts, and the client brings
// retries, backoff and the exactly-once round protocol. Against a healthy
// in-process server no retry fires, but the same code survives dropped and
// truncated connections unchanged (see the client-proxy row of
// TestChaosScenarios).
func Example_resilientClient() {
	rng := rand.New(rand.NewSource(3))
	ds := isrl.Anticorrelated(rng, 1000, 3).Skyline()
	srv := httptest.NewServer(isrl.NewHTTPServer(ds, 0.1, func() isrl.Algorithm {
		return isrl.NewUHSimplex(isrl.UHConfig{}, rand.New(rand.NewSource(4)))
	}))
	defer srv.Close()

	c := client.New(srv.URL)
	truth := isrl.SimulatedUser{Utility: []float64{0.5, 0.3, 0.2}}
	res, err := c.Run(context.Background(), func(q client.Question) bool {
		return truth.Prefer(q.First, q.Second)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Rounds > 0 && len(res.Point) == 3)
	// Output: true
}
