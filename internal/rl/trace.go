package rl

import (
	"context"

	"isrl/internal/trace"
)

// BestCtx is Best with a tracing leaf span: the batched greedy scoring is
// timed as "rl.best" with the candidate count attached when ctx carries an
// active trace.
func (a *Agent) BestCtx(ctx context.Context, state []float64, actions [][]float64) int {
	sp := trace.StartLeaf(ctx, "rl.best")
	if sp == nil {
		return a.Best(state, actions)
	}
	sp.SetInt("candidates", int64(len(actions)))
	defer sp.End()
	return a.Best(state, actions)
}
