package rl_test

import (
	"math"
	"math/rand"
	"testing"

	"isrl/internal/aa"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/geom"
	"isrl/internal/rl"
)

// trainedBlobs trains a small EA and a small AA for a few episodes and
// returns their serialized agents — real model files, network shape and
// all, for the fuzzer to mutate.
func trainedBlobs(f *testing.F) (eaBlob, aaBlob []byte) {
	f.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := dataset.Anticorrelated(rng, 150, 3).Skyline()
	users := make([][]float64, 4)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, 3)
	}
	e := ea.New(ds, 0.1, ea.Config{Me: 3, Mh: 4, NumSamples: 16, MaxRounds: 40}, rng)
	if _, err := e.Train(users); err != nil {
		f.Fatal(err)
	}
	a := aa.New(ds, 0.1, aa.Config{Mh: 4, TopK: 10, RandPairs: 40, MaxLPChecks: 30, MaxRounds: 80}, rng)
	if _, err := a.Train(users); err != nil {
		f.Fatal(err)
	}
	var err error
	if eaBlob, err = e.Agent().MarshalBinary(); err != nil {
		f.Fatal(err)
	}
	if aaBlob, err = a.Agent().MarshalBinary(); err != nil {
		f.Fatal(err)
	}
	return eaBlob, aaBlob
}

// FuzzUnmarshalAgent feeds arbitrary bytes to the model loader. A blob must
// either be rejected with an error or load into an agent that can score; a
// second load of the same bytes (served from the decoded-model cache) must
// score bit-identically to the first.
func FuzzUnmarshalAgent(f *testing.F) {
	eaBlob, aaBlob := trainedBlobs(f)
	f.Add(eaBlob)
	f.Add(aaBlob)
	f.Add(eaBlob[:len(eaBlob)/2]) // torn model file
	f.Add([]byte("dqn:2:2:"))
	tiny, err := rl.NewAgent(2, 1, rl.Config{Hidden: 2}, rand.New(rand.NewSource(2))).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tiny) // small enough that mutations often reach the header

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := rl.UnmarshalAgent(data, rl.Config{})
		if err != nil {
			return // rejection is a legitimate outcome
		}
		state := make([]float64, a.StateDim)
		actions := [][]float64{make([]float64, a.ActionDim)}
		q := a.QBatch(state, actions, nil)
		b, err := rl.UnmarshalAgent(data, rl.Config{})
		if err != nil {
			t.Fatalf("second load of accepted bytes failed: %v", err)
		}
		if again := b.QBatch(state, actions, nil); math.Float64bits(again[0]) != math.Float64bits(q[0]) {
			t.Fatalf("second load scores %v, first %v", again[0], q[0])
		}
	})
}
