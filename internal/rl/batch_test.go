package rl

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"isrl/internal/nn"
)

// QBatch and Best must agree bit-for-bit with scoring each action through
// the single-vector Q path — the contract that makes batched candidate
// scoring a pure optimization.
func TestQBatchBitIdenticalToSerialQ(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAgent(21, 8, Config{}, rng)
	state := make([]float64, 21)
	for i := range state {
		state[i] = rng.NormFloat64()
	}
	actions := make([][]float64, 17)
	for i := range actions {
		actions[i] = make([]float64, 8)
		for j := range actions[i] {
			actions[i][j] = rng.NormFloat64()
		}
	}
	qs := a.QBatch(state, actions, nil)
	bi, bq := 0, math.Inf(-1)
	for i, act := range actions {
		q := a.Q(state, act)
		if qs[i] != q {
			t.Fatalf("QBatch[%d] = %v, Q = %v", i, qs[i], q)
		}
		if q > bq {
			bi, bq = i, q
		}
	}
	if got := a.BestCtx(context.Background(), state, actions); got != bi {
		t.Fatalf("Best = %d, serial argmax = %d", got, bi)
	}
}

// serialTrainBatch replicates the pre-batching TrainBatch loop verbatim
// (per-transition forward/backward, one action forward at a time) so the
// batched implementation can be checked for exact equivalence.
func (a *Agent) serialTrainBatch(batch []Transition) float64 {
	nextValue := func(state []float64, actions [][]float64) float64 {
		if len(actions) == 0 {
			return 0
		}
		if !a.cfg.VanillaDQN {
			bi, bq := 0, math.Inf(-1)
			for i, act := range actions {
				if q := a.forward(a.Main, state, act); q > bq {
					bi, bq = i, q
				}
			}
			return a.forward(a.Target, state, actions[bi])
		}
		best := math.Inf(-1)
		for _, act := range actions {
			if q := a.forward(a.Target, state, act); q > best {
				best = q
			}
		}
		return best
	}
	a.Main.ZeroGrad()
	var total float64
	var gin []float64
	inv := 1 / float64(len(batch))
	pred, tgt := []float64{0}, []float64{0}
	for _, tr := range batch {
		y := tr.Reward
		if !tr.Terminal {
			y += a.cfg.Gamma * nextValue(tr.Next, tr.NextActions)
		}
		q := a.forward(a.Main, tr.State, tr.Action)
		pred[0], tgt[0] = q, y
		var loss float64
		var grad []float64
		if a.cfg.MSE {
			loss, grad = nn.MSE(pred, tgt, gin)
		} else {
			loss, grad = nn.Huber(pred, tgt, gin, a.cfg.HuberDelta)
		}
		gin = grad
		grad[0] *= inv
		total += loss * inv
		a.Main.Backward(grad)
	}
	nn.ClipGrads(a.Main.Params(), a.cfg.GradClip)
	a.opt.Step(a.Main.Params())
	a.updates++
	if a.updates%a.cfg.SyncEvery == 0 {
		a.Target.CopyWeightsFrom(a.Main)
	}
	return total
}

// The batched gradient step must reproduce the serial one exactly: same
// loss and bit-identical weights after several updates
// (including across a target-network sync).
func TestTrainBatchBitIdenticalToSerial(t *testing.T) {
	for _, cfg := range []Config{
		{SyncEvery: 3}, // stabilized recipe (Adam, Huber, Double)
		{SyncEvery: 3, UseSGD: true, MSE: true, VanillaDQN: true}, // the paper's recipe
	} {
		batched := NewAgent(11, 4, cfg, rand.New(rand.NewSource(7)))
		serial := NewAgent(11, 4, cfg, rand.New(rand.NewSource(7)))
		rng := rand.New(rand.NewSource(8))
		for step := 0; step < 7; step++ {
			batch := benchBatch(rng, 11, 4, 32)
			lossB := batched.TrainBatch(batch)
			lossS := serial.serialTrainBatch(batch)
			if lossB != lossS {
				t.Fatalf("step %d: batched loss %v, serial %v", step, lossB, lossS)
			}
		}
		bp, sp := batched.Main.Params(), serial.Main.Params()
		for i := range bp {
			for j := range bp[i].W {
				if bp[i].W[j] != sp[i].W[j] {
					t.Fatalf("param %d w[%d]: batched %v, serial %v", i, j, bp[i].W[j], sp[i].W[j])
				}
			}
		}
	}
}

// raggedBatch builds a batch shaped like the ones EA and AA replay: each
// transition has 0–5 next actions (EA's pair sampler can return fewer than
// m_h), some non-terminal transitions have none, and every seventh is
// terminal. allTerminal makes every transition terminal, so no target group
// is formed at all.
func raggedBatch(rng *rand.Rand, stateDim, actionDim, n int, allTerminal bool) []Transition {
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
			Reward: rng.Float64() - 0.5,
			Next:   randVec(stateDim),
		}
		for a, k := 0, (i+rng.Intn(2))%6; a < k; a++ {
			tr.NextActions = append(tr.NextActions, randVec(actionDim))
		}
		tr.Terminal = allTerminal || i%7 == 3
		batch[i] = tr
	}
	return batch
}

// The grouped target pass must reproduce the serial replica on ragged
// next-action sets, for both the stabilized and the paper's recipe.
func TestTrainBatchRaggedMatchesSerial(t *testing.T) {
	for _, cfg := range []Config{
		{SyncEvery: 3},
		{SyncEvery: 3, UseSGD: true, MSE: true, VanillaDQN: true},
	} {
		batched := NewAgent(13, 6, cfg, rand.New(rand.NewSource(17)))
		serial := NewAgent(13, 6, cfg, rand.New(rand.NewSource(17)))
		rng := rand.New(rand.NewSource(18))
		for step := 0; step < 8; step++ {
			batch := raggedBatch(rng, 13, 6, 21+step, step == 4)
			if step == 0 {
				empty := 0
				for _, tr := range batch {
					if !tr.Terminal && len(tr.NextActions) == 0 {
						empty++
					}
				}
				if empty == 0 {
					t.Fatal("ragged batch has no non-terminal transition without next actions")
				}
			}
			lossB := batched.TrainBatch(batch)
			lossS := serial.serialTrainBatch(batch)
			if lossB != lossS {
				t.Fatalf("vanilla=%v step %d: batched loss %v, serial %v", cfg.VanillaDQN, step, lossB, lossS)
			}
		}
		bp, sp := batched.Main.Params(), serial.Main.Params()
		for i := range bp {
			for j := range bp[i].W {
				if bp[i].W[j] != sp[i].W[j] {
					t.Fatalf("vanilla=%v param %d w[%d]: batched %v, serial %v", cfg.VanillaDQN, i, j, bp[i].W[j], sp[i].W[j])
				}
			}
		}
	}
}
