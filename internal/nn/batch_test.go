package nn

import (
	"math/rand"
	"testing"

	"isrl/internal/vec"
)

func randBatch(rng *rand.Rand, n, dim int) *vec.Mat {
	x := vec.NewMat(n, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// ForwardBatch must be bit-identical to per-row Forward: batched scoring in
// the DQN is only valid as an optimization if the scores cannot drift.
func TestForwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, act := range []Activation{SELU, ReLU, Tanh} {
		net := NewMLP([]int{13, 32, 32, 4}, act, rng)
		x := randBatch(rng, 9, 13)
		got := net.ForwardBatch(x).Clone()
		for r := 0; r < x.Rows; r++ {
			want := net.Forward(x.Row(r))
			for j, wj := range want {
				if got.At(r, j) != wj {
					t.Fatalf("%v: ForwardBatch[%d,%d] = %v, Forward = %v", act, r, j, got.At(r, j), wj)
				}
			}
		}
	}
}

// BackwardBatch must accumulate the same parameter gradients as running the
// serial Backward once per row, in row order.
func TestBackwardBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	batch := NewMLP([]int{7, 16, 2}, SELU, rng)
	serial := batch.Clone()
	x := randBatch(rng, 5, 7)
	g := randBatch(rng, 5, 2)

	batch.ZeroGrad()
	batch.ForwardBatch(x)
	batch.BackwardBatch(g)

	serial.ZeroGrad()
	for r := 0; r < x.Rows; r++ {
		serial.Forward(x.Row(r))
		serial.Backward(g.Row(r))
	}

	bp, sp := batch.Params(), serial.Params()
	for i := range bp {
		for j := range bp[i].Grad {
			if bp[i].Grad[j] != sp[i].Grad[j] {
				t.Fatalf("param %d grad[%d]: batch %v, serial %v", i, j, bp[i].Grad[j], sp[i].Grad[j])
			}
		}
	}
}

// A cloned network must not share batch scratch with its source.
func TestCloneBatchIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewMLP([]int{4, 8, 1}, SELU, rng)
	x := randBatch(rng, 3, 4)
	a.ForwardBatch(x)
	b := a.Clone()
	outA := a.ForwardBatch(x).Clone()
	b.ForwardBatch(randBatch(rng, 6, 4))
	outA2 := a.ForwardBatch(x)
	for i := range outA.Data {
		if outA.Data[i] != outA2.Data[i] {
			t.Fatal("clone's batch pass perturbed the source network")
		}
	}
}

func BenchmarkForwardBatch64(b *testing.B) {
	net := NewMLP([]int{29, 64, 1}, SELU, rand.New(rand.NewSource(4)))
	x := randBatch(rand.New(rand.NewSource(5)), 64, 29)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(x)
	}
}

func BenchmarkForward64Serial(b *testing.B) {
	net := NewMLP([]int{29, 64, 1}, SELU, rand.New(rand.NewSource(4)))
	x := randBatch(rand.New(rand.NewSource(5)), 64, 29)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < x.Rows; r++ {
			net.Forward1(x.Row(r))
		}
	}
}

// ForwardBatchShared must be bit-identical to full per-row forwards on the
// concatenated input.
func TestForwardBatchSharedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewMLP([]int{29, 64, 1}, SELU, rng)
	state := make([]float64, 21)
	for i := range state {
		state[i] = rng.NormFloat64()
	}
	acts := randBatch(rng, 7, 8)
	got := net.ForwardBatchShared(state, acts).Clone()
	full := make([]float64, 29)
	copy(full, state)
	for r := 0; r < acts.Rows; r++ {
		copy(full[21:], acts.Row(r))
		want := net.Forward1(full)
		if got.At(r, 0) != want {
			t.Fatalf("ForwardBatchShared[%d] = %v, Forward1 = %v", r, got.At(r, 0), want)
		}
	}
}

// ForwardBatchGrouped must be bit-identical to full per-row forwards on
// states[group[r]] ⊕ rest[r] for the ragged groups a DQN minibatch produces:
// groups of one to five rows, a state no row refers to, rows out of group
// order, and first-layer widths with and without a partial 4-output block.
func TestForwardBatchGroupedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, c := range []struct {
		stateDim, actionDim, hidden int
		act                         Activation
	}{
		{61, 40, 64, SELU}, // AA at d=20
		{21, 8, 30, ReLU},
		{5, 3, 7, Tanh},
	} {
		net := NewMLP([]int{c.stateDim + c.actionDim, c.hidden, 1}, c.act, rng)
		sizes := []int{3, 1, 0, 5, 2, 4} // rows per group; group 2 has none
		states := randBatch(rng, len(sizes), c.stateDim)
		var group []int
		for g, n := range sizes {
			for i := 0; i < n; i++ {
				group = append(group, g)
			}
		}
		group[1], group[len(group)-1] = group[len(group)-1], group[1]
		rest := randBatch(rng, len(group), c.actionDim)
		got := net.ForwardBatchGrouped(states, group, rest).Clone()
		full := make([]float64, c.stateDim+c.actionDim)
		for r, g := range group {
			copy(full, states.Row(g))
			copy(full[c.stateDim:], rest.Row(r))
			if want := net.Forward1(full); got.At(r, 0) != want {
				t.Fatalf("%v %d+%d: ForwardBatchGrouped[%d] (group %d) = %v, Forward1 = %v",
					c.act, c.stateDim, c.actionDim, r, g, got.At(r, 0), want)
			}
		}
	}
}
