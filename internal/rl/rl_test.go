package rl

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestReplayRing(t *testing.T) {
	r := NewReplay(3)
	if r.Len() != 0 {
		t.Fatal("fresh replay not empty")
	}
	for i := 0; i < 5; i++ {
		r.Add(Transition{Reward: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d want 3", r.Len())
	}
	// The oldest two (0,1) must have been evicted.
	rng := rand.New(rand.NewSource(1))
	for _, tr := range r.Sample(rng, 100) {
		if tr.Reward < 2 {
			t.Fatalf("evicted transition %v still sampled", tr.Reward)
		}
	}
}

func TestReplaySampleEmpty(t *testing.T) {
	r := NewReplay(4)
	if got := r.Sample(rand.New(rand.NewSource(1)), 5); got != nil {
		t.Errorf("sampling empty buffer: %v", got)
	}
}

func TestReplayCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	NewReplay(0)
}

func TestEpsilonSchedule(t *testing.T) {
	e := EpsilonSchedule{Start: 0.9, End: 0.1, DecaySteps: 8}
	if e.At(0) != 0.9 {
		t.Errorf("At(0) = %v", e.At(0))
	}
	if got := e.At(4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("At(4) = %v want 0.5", got)
	}
	if e.At(8) != 0.1 || e.At(100) != 0.1 {
		t.Error("schedule must clamp at End")
	}
	c := EpsilonSchedule{Start: 0.3}
	if c.At(0) != 0.3 || c.At(1000) != 0.3 {
		t.Error("zero DecaySteps must hold Start forever")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	// Structural hyperparameters follow the paper's §V values...
	if c.Hidden != 64 || c.Gamma != 0.8 || c.BatchSize != 64 ||
		c.SyncEvery != 20 {
		t.Errorf("structural defaults do not match the paper: %+v", c)
	}
	// ...while the optimizer recipe defaults to the stabilized variant.
	if c.UseSGD || c.MSE || c.VanillaDQN || c.RewardC != 1 || c.LR != 0.001 {
		t.Errorf("stabilized recipe not selected by default: %+v", c)
	}
	// The paper's exact setup is preserved behind PaperConfig.
	p := PaperConfig().Defaults()
	if !p.UseSGD || !p.MSE || !p.VanillaDQN || p.RewardC != 100 || p.LR != 0.003 {
		t.Errorf("PaperConfig does not match §V: %+v", p)
	}
	// Explicit values survive.
	c2 := Config{Hidden: 8, Gamma: 0.5}.Defaults()
	if c2.Hidden != 8 || c2.Gamma != 0.5 {
		t.Errorf("explicit values overridden: %+v", c2)
	}
}

func TestAgentBestAndEpsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAgent(2, 2, Config{Hidden: 8}, rng)
	state := []float64{0.5, 0.5}
	actions := [][]float64{{0, 0}, {1, 0}, {0, 1}}
	best := a.BestCtx(context.Background(), state, actions)
	if best < 0 || best >= len(actions) {
		t.Fatalf("best index %d out of range", best)
	}
	// eps=0 must equal greedy.
	if got := a.SelectEpsGreedy(rng, state, actions, 0); got != best {
		t.Errorf("greedy select %d != best %d", got, best)
	}
	// eps=1 must eventually hit all indices.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[a.SelectEpsGreedy(rng, state, actions, 1)] = true
	}
	if len(seen) != len(actions) {
		t.Errorf("pure exploration visited %d of %d actions", len(seen), len(actions))
	}
}

func TestTargetSyncCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAgent(1, 1, Config{Hidden: 4, SyncEvery: 3, BatchSize: 2}, rng)
	batch := []Transition{
		{State: []float64{0.1}, Action: []float64{0.2}, Reward: 1, Terminal: true},
		{State: []float64{0.9}, Action: []float64{0.4}, Reward: 0, Terminal: true},
	}
	x := []float64{0.3}
	act := []float64{0.7}
	// After two updates the target must still be the original weights.
	before := a.forward(a.Target, x, act)
	a.TrainBatch(batch)
	a.TrainBatch(batch)
	if got := a.forward(a.Target, x, act); got != before {
		t.Error("target changed before SyncEvery updates")
	}
	a.TrainBatch(batch) // third update triggers sync
	if got := a.forward(a.Target, x, act); got == before {
		t.Error("target not synced at SyncEvery")
	}
	if a.Updates() != 3 {
		t.Errorf("updates = %d want 3", a.Updates())
	}
}

// A one-state, two-action bandit: the agent must learn that action 1 pays
// the terminal reward.
func TestDQNLearnsBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewAgent(1, 1, Config{Hidden: 16, LR: 0.05, RewardC: 1}, rng)
	state := []float64{1}
	good, bad := []float64{1}, []float64{-1}
	rep := NewReplay(256)
	for i := 0; i < 200; i++ {
		rep.Add(Transition{State: state, Action: good, Reward: 1, Terminal: true})
		rep.Add(Transition{State: state, Action: bad, Reward: 0, Terminal: true})
	}
	for step := 0; step < 300; step++ {
		a.TrainBatch(rep.Sample(rng, 32))
	}
	if qg, qb := a.Q(state, good), a.Q(state, bad); qg <= qb {
		t.Errorf("Q(good)=%v ≤ Q(bad)=%v after training", qg, qb)
	}
	if got := a.BestCtx(context.Background(), state, [][]float64{bad, good}); got != 1 {
		t.Errorf("Best = %d want 1", got)
	}
}

// Double DQN must still learn the bandit, and its next-state value must use
// the main network's argmax.
func TestDoubleDQNLearnsBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewAgent(1, 1, Config{Hidden: 16, LR: 0.05, RewardC: 1}, rng)
	state := []float64{1}
	good, bad := []float64{1}, []float64{-1}
	rep := NewReplay(256)
	for i := 0; i < 200; i++ {
		rep.Add(Transition{State: state, Action: good, Reward: 1, Terminal: true})
		rep.Add(Transition{State: state, Action: bad, Reward: 0, Terminal: true})
	}
	for step := 0; step < 400; step++ {
		a.TrainBatch(rep.Sample(rng, 32))
	}
	if qg, qb := a.Q(state, good), a.Q(state, bad); qg <= qb {
		t.Errorf("Q(good)=%v ≤ Q(bad)=%v after Double-DQN training", qg, qb)
	}
}

// A two-step chain: s0 → (any action) → s1 → terminal reward. Q(s0)
// must approach γ·c, verifying bootstrap through the target network.
func TestDQNBootstrapsThroughNextState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := Config{Hidden: 16, LR: 0.05, Gamma: 0.5, RewardC: 1, SyncEvery: 5}
	a := NewAgent(1, 1, cfg, rng)
	s0, s1 := []float64{0}, []float64{1}
	act := []float64{1}
	rep := NewReplay(256)
	for i := 0; i < 100; i++ {
		rep.Add(Transition{State: s0, Action: act, Reward: 0, Next: s1, NextActions: [][]float64{act}})
		rep.Add(Transition{State: s1, Action: act, Reward: 1, Terminal: true})
	}
	for step := 0; step < 600; step++ {
		a.TrainBatch(rep.Sample(rng, 32))
	}
	if q1 := a.Q(s1, act); math.Abs(q1-1) > 0.15 {
		t.Errorf("Q(s1) = %v want ≈1", q1)
	}
	if q0 := a.Q(s0, act); math.Abs(q0-0.5) > 0.15 {
		t.Errorf("Q(s0) = %v want ≈γ·1 = 0.5", q0)
	}
}

func TestTrainBatchEmpty(t *testing.T) {
	a := NewAgent(1, 1, Config{Hidden: 4}, rand.New(rand.NewSource(6)))
	if loss := a.TrainBatch(nil); loss != 0 {
		t.Errorf("empty batch loss = %v", loss)
	}
}

func TestAgentSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAgent(3, 2, Config{Hidden: 8}, rng)
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalAgent(blob, Config{Hidden: 8})
	if err != nil {
		t.Fatal(err)
	}
	if back.StateDim != 3 || back.ActionDim != 2 {
		t.Errorf("dims = (%d,%d)", back.StateDim, back.ActionDim)
	}
	s, act := []float64{0.1, 0.2, 0.3}, []float64{0.4, 0.5}
	if qa, qb := a.Q(s, act), back.Q(s, act); qa != qb {
		t.Errorf("round trip changed Q: %v vs %v", qa, qb)
	}
}

func TestUnmarshalAgentGarbage(t *testing.T) {
	if _, err := UnmarshalAgent([]byte("nope"), Config{}); err == nil {
		t.Error("garbage blob must fail")
	}
	if _, err := UnmarshalAgent([]byte("dqn:2:2:junk"), Config{}); err == nil {
		t.Error("bad payload must fail")
	}
}
