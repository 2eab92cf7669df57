package rl

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func benchBatch(rng *rand.Rand, stateDim, actionDim, n int) []Transition {
	randVec := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	batch := make([]Transition, n)
	for i := range batch {
		tr := Transition{
			State:  randVec(stateDim),
			Action: randVec(actionDim),
			Reward: 0,
			Next:   randVec(stateDim),
		}
		for a := 0; a < 5; a++ { // the paper's m_h = 5 candidate actions
			tr.NextActions = append(tr.NextActions, randVec(actionDim))
		}
		if i%7 == 0 {
			tr.Terminal = true
			tr.Reward = 1
		}
		batch[i] = tr
	}
	return batch
}

func BenchmarkTrainBatch64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewAgent(21, 8, Config{}, rng) // EA shape at d=4
	batch := benchBatch(rng, 21, 8, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TrainBatch(batch)
	}
}

// BenchmarkTrainBatchAAd20 is one gradient step at AA's d = 20 shape
// (state 3d+1 = 61, action 2d = 40), the paper's minibatch of 64 with
// m_h = 5 next actions per transition.
func BenchmarkTrainBatchAAd20(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewAgent(61, 40, Config{}, rng)
	batch := benchBatch(rng, 61, 40, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TrainBatch(batch)
	}
}

func BenchmarkBestOf5(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := NewAgent(21, 8, Config{}, rng)
	state := make([]float64, 21)
	actions := make([][]float64, 5)
	for i := range actions {
		actions[i] = make([]float64, 8)
		for j := range actions[i] {
			actions[i][j] = rng.Float64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.BestCtx(context.Background(), state, actions)
	}
}

// benchActions builds a candidate set of k action-feature vectors.
func benchActions(rng *rand.Rand, k, dim int) [][]float64 {
	actions := make([][]float64, k)
	for i := range actions {
		actions[i] = make([]float64, dim)
		for j := range actions[i] {
			actions[i][j] = rng.Float64()
		}
	}
	return actions
}

// Serial-vs-batched candidate scoring at the EA d=4 shape (state 21, action
// 8): the pre-batching path scored each candidate with one full forward.
func BenchmarkScoreCandidatesSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := NewAgent(21, 8, Config{}, rng)
	state := make([]float64, 21)
	actions := benchActions(rng, 64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, bq := 0, math.Inf(-1)
		for k, act := range actions {
			if q := a.Q(state, act); q > bq {
				best, bq = k, q
			}
		}
		_ = best
	}
}

func BenchmarkScoreCandidatesBatched(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := NewAgent(21, 8, Config{}, rng)
	state := make([]float64, 21)
	actions := benchActions(rng, 64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.BestCtx(context.Background(), state, actions)
	}
}
