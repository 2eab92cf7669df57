package rl

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"isrl/internal/nn"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// Config collects the DQN hyperparameters. Zero values select, via
// Defaults, the paper's §V structural settings combined with the stabilized
// optimizer recipe; PaperConfig gives §V verbatim.
type Config struct {
	Hidden     int // hidden-layer width (paper: one layer of 64)
	Activation nn.Activation
	LR         float64 // learning rate (paper: 0.003)
	Gamma      float64 // discount factor (paper: 0.8)
	BatchSize  int     // minibatch size (paper: 64)
	ReplayCap  int     // replay memory size (paper: 5,000)
	SyncEvery  int     // target sync interval in updates (paper: 20)
	RewardC    float64 // terminal reward constant c (paper: 100)
	Epsilon    EpsilonSchedule
	GradClip   float64 // global-norm clip; ≤0 disables

	// The zero value selects the stabilized DQN recipe (Adam, Huber loss,
	// Double DQN, unit terminal reward), which is what measurably learns in
	// this substrate — see DESIGN.md §2 and the abl-dqn experiment. The
	// paper's §V settings (plain SGD, MSE, c = 100) are available through
	// PaperConfig and these switches.
	UseSGD     bool    // plain SGD instead of Adam (the paper's optimizer)
	MSE        bool    // squared loss instead of Huber (the paper's loss)
	VanillaDQN bool    // classic max-over-target instead of Double DQN
	HuberDelta float64 // Huber transition point; 0 selects 1
}

// Defaults fills unset fields. Structural hyperparameters (width, γ, batch,
// replay, sync cadence) take the paper's §V values; the optimizer recipe
// defaults to the stabilized variant (see Config).
func (c Config) Defaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.LR == 0 {
		if c.UseSGD {
			c.LR = 0.003 // the paper's SGD learning rate
		} else {
			c.LR = 0.001
		}
	}
	if c.Gamma == 0 {
		c.Gamma = 0.8
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.ReplayCap == 0 {
		c.ReplayCap = 5000
	}
	if c.SyncEvery == 0 {
		c.SyncEvery = 20
	}
	if c.RewardC == 0 {
		c.RewardC = 1
	}
	if c.Epsilon == (EpsilonSchedule{}) {
		// Paper sets ε = 0.9; we decay it to a small floor so late episodes
		// refine rather than thrash. DecaySteps is per-episode.
		c.Epsilon = EpsilonSchedule{Start: 0.9, End: 0.05, DecaySteps: 2000}
	}
	if c.GradClip == 0 {
		c.GradClip = 10
	}
	return c
}

// PaperConfig returns the exact §V training setup of the paper: plain
// gradient descent with learning rate 0.003, MSE loss, vanilla DQN targets
// and terminal reward c = 100. Used by the abl-dqn experiment.
func PaperConfig() Config {
	return Config{
		LR:         0.003,
		RewardC:    100,
		UseSGD:     true,
		MSE:        true,
		VanillaDQN: true,
	}
}

// Agent is a DQN over (state, action)-feature pairs: Q(s,a;Θ) is an MLP fed
// the concatenation s ⊕ a with a scalar head. Target network Q̂(·;Θ′) is
// synchronized from the main network every SyncEvery updates.
//
// An agent from UnmarshalAgent starts with Main set to a decoded model shared
// with every other agent loaded from the same bytes, no Target and no
// scratch. Main is then only read, never run: each Q, QBatch or BestCtx call
// borrows a pooled scorer (a View of Main plus its scoring scratch) for the
// length of the call, so an idle agent holds no forward scratch. Its first
// TrainBatch or SyncTarget call clones Main into private weights and builds
// Target, the optimizer and private scratch, so the shared weights are never
// written.
type Agent struct {
	StateDim, ActionDim int

	Main, Target *nn.Network
	cfg          Config
	opt          nn.Optimizer
	params       []*nn.Param // Main's parameters, listed once with the training state
	updates      int
	syncs        int     // target-network synchronizations
	lastLoss     float64 // loss of the most recent batch
	lossEMA      float64 // exponential moving average of the batch loss

	// scorers is set while Main is shared (see newScorerPool); the agent
	// then scores on borrowed scratch and leaves in, actMat and qs nil.
	scorers *sync.Pool
	in      []float64 // scratch forward input

	// Batched-scoring and training scratch, preallocated so the per-round
	// and per-update hot paths allocate nothing.
	actMat  *vec.Mat  // candidate-action rows (QBatch, and next actions in training)
	qs      []float64 // candidate scores
	xMat    *vec.Mat  // training-batch (s ⊕ a) rows
	gMat    *vec.Mat  // training-batch dL/dQ rows
	nextMat *vec.Mat  // one next state per target group
	group   []int     // actMat row → target group
	tgtMat  *vec.Mat  // (next ⊕ argmax-action) rows for the target network
	ys      []float64 // bootstrap targets
	tgtRow  []int     // batch index → target group and tgtMat row (-1 when terminal/no actions)
}

// emaDecay smooths the training-loss EMA over roughly the last ~200
// batches — long enough to be stable, short enough to track divergence.
const emaDecay = 0.995

// NewAgent builds an agent for the given feature dimensions.
func NewAgent(stateDim, actionDim int, cfg Config, rng *rand.Rand) *Agent {
	cfg = cfg.Defaults()
	inDim := stateDim + actionDim
	main := nn.NewMLP([]int{inDim, cfg.Hidden, 1}, cfg.Activation, rng)
	return &Agent{
		StateDim:  stateDim,
		ActionDim: actionDim,
		Main:      main,
		Target:    main.Clone(),
		cfg:       cfg,
		opt:       newOptimizer(cfg),
		params:    main.Params(),
		in:        make([]float64, inDim),
	}
}

func newOptimizer(cfg Config) nn.Optimizer {
	if cfg.UseSGD {
		return nn.NewSGD(cfg.LR, 0)
	}
	return nn.NewAdam(cfg.LR)
}

// own gives an agent its training state on first use. A loaded agent gets
// private weights cloned from the shared model, a Target synchronized to
// them, a fresh optimizer and private scoring scratch; the clone is
// bit-identical to the shared weights, so a loaded agent trains
// bit-identically to a privately decoded copy (checkpoint resume relies on
// this). Every agent then lists Main's parameters once, so a gradient step
// does not rebuild the list.
func (a *Agent) own() {
	if a.params != nil {
		return
	}
	if a.Target == nil {
		a.Main = a.Main.Clone()
		a.Target = a.Main.Clone()
		a.opt = newOptimizer(a.cfg)
		a.scorers = nil
		a.in = make([]float64, a.StateDim+a.ActionDim)
	}
	a.params = a.Main.Params()
}

// newScorerPool returns the scorers of one shared decoded network. A scorer
// is a bare Agent whose Main is a View of net, with the scoring scratch (in,
// actMat, qs) that View's forward passes fill. A loaded agent borrows one for
// the length of a scoring call, so scratch scales with how many agents score
// at once, not with how many are loaded.
func newScorerPool(sd, ad int, net *nn.Network) *sync.Pool {
	return &sync.Pool{New: func() any {
		return &Agent{StateDim: sd, ActionDim: ad, Main: net.View(), in: make([]float64, sd+ad)}
	}}
}

// borrow returns the agent a scoring call runs on: a itself when it owns
// Main, otherwise a pooled scorer over the shared model. Hand it back with
// release before the call returns.
func (a *Agent) borrow() *Agent {
	if a.scorers == nil {
		return a
	}
	return a.scorers.Get().(*Agent)
}

func (a *Agent) release(s *Agent) {
	if s != a {
		a.scorers.Put(s)
	}
}

// Config returns the resolved hyperparameters.
func (a *Agent) Config() Config { return a.cfg }

// Q evaluates the main network's value for (state, action).
func (a *Agent) Q(state, action []float64) float64 {
	s := a.borrow()
	defer a.release(s)
	return s.forward(s.Main, state, action)
}

func (a *Agent) forward(net *nn.Network, state, action []float64) float64 {
	if len(state) != a.StateDim || len(action) != a.ActionDim {
		panic(fmt.Sprintf("rl: Q feature dims (%d,%d), want (%d,%d)",
			len(state), len(action), a.StateDim, a.ActionDim))
	}
	copy(a.in, state)
	copy(a.in[a.StateDim:], action)
	return net.Forward1(a.in)
}

// QBatch evaluates the main network's value for state against every action
// with one shared-prefix batched forward, storing the scores into dst (grown
// when nil or mis-sized). dst[i] is bit-identical to Q(state, actions[i]);
// the batch is a pure optimization.
func (a *Agent) QBatch(state []float64, actions [][]float64, dst []float64) []float64 {
	s := a.borrow()
	defer a.release(s)
	qs := s.qBatch(state, actions)
	if len(dst) != len(qs) {
		dst = make([]float64, len(qs))
	}
	copy(dst, qs)
	return dst
}

// qBatch scores state against actions on a.Main with a's scratch,
// returning a scratch slice valid until the next qBatch call on a.
func (a *Agent) qBatch(state []float64, actions [][]float64) []float64 {
	if len(state) != a.StateDim {
		panic(fmt.Sprintf("rl: QBatch state dim %d, want %d", len(state), a.StateDim))
	}
	a.actMat = vec.EnsureMat(a.actMat, len(actions), a.ActionDim)
	for i, act := range actions {
		if len(act) != a.ActionDim {
			panic(fmt.Sprintf("rl: QBatch action %d dim %d, want %d", i, len(act), a.ActionDim))
		}
		copy(a.actMat.Row(i), act)
	}
	out := a.Main.ForwardBatchShared(state, a.actMat)
	if cap(a.qs) < len(actions) {
		a.qs = make([]float64, len(actions))
	}
	a.qs = a.qs[:len(actions)]
	for i := range a.qs {
		a.qs[i] = out.At(i, 0)
	}
	return a.qs
}

// BestCtx returns the index of the action with the largest main-network
// Q-value, scored in one batched forward. It panics on an empty action set.
// When ctx carries an active trace the scoring is timed as an "rl.best"
// leaf span with the candidate count attached.
func (a *Agent) BestCtx(ctx context.Context, state []float64, actions [][]float64) int {
	if sp := trace.StartLeaf(ctx, "rl.best"); sp != nil {
		sp.SetInt("candidates", int64(len(actions)))
		defer sp.End()
	}
	if len(actions) == 0 {
		panic("rl: Best with no actions")
	}
	s := a.borrow()
	defer a.release(s)
	return argmaxFirst(s.qBatch(state, actions))
}

// argmaxFirst returns the index of the largest value, breaking ties toward
// the smallest index — the serial loop's `q > best` rule.
func argmaxFirst(qs []float64) int {
	bi, bq := 0, math.Inf(-1)
	for i, q := range qs {
		if q > bq {
			bi, bq = i, q
		}
	}
	return bi
}

// SelectEpsGreedy picks a random action with probability eps, otherwise the
// greedy one.
func (a *Agent) SelectEpsGreedy(rng *rand.Rand, state []float64, actions [][]float64, eps float64) int {
	if len(actions) == 0 {
		panic("rl: SelectEpsGreedy with no actions")
	}
	if rng.Float64() < eps {
		return rng.Intn(len(actions))
	}
	return a.BestCtx(context.Background(), state, actions)
}

// computeTargets fills a.ys with the bootstrap target r + γ·V(s′) of every
// transition in a few batched passes. Each non-terminal transition with next
// actions is one group of a single grouped forward: its next state is the
// group's shared prefix and each candidate action one row. Vanilla DQN runs
// that pass on the target network and takes each group's max; Double DQN
// runs it on the main network, takes each group's argmax, and evaluates the
// selected (next ⊕ action) rows in one target pass, which removes the
// maximization bias. The targets are bit-identical to scoring each
// (state, action) pair serially.
func (a *Agent) computeTargets(batch []Transition) {
	if cap(a.ys) < len(batch) {
		a.ys = make([]float64, len(batch))
		a.tgtRow = make([]int, len(batch))
	}
	a.ys = a.ys[:len(batch)]
	a.tgtRow = a.tgtRow[:len(batch)]

	groups, rows := 0, 0
	for _, tr := range batch {
		if !tr.Terminal && len(tr.NextActions) > 0 {
			groups++
			rows += len(tr.NextActions)
		}
	}
	a.nextMat = vec.EnsureMat(a.nextMat, groups, a.StateDim)
	a.actMat = vec.EnsureMat(a.actMat, rows, a.ActionDim)
	a.group = a.group[:0]
	g := 0
	for bi, tr := range batch {
		a.ys[bi] = tr.Reward
		a.tgtRow[bi] = -1
		if tr.Terminal || len(tr.NextActions) == 0 {
			continue
		}
		if len(tr.Next) != a.StateDim {
			panic(fmt.Sprintf("rl: transition %d next-state dim %d, want %d", bi, len(tr.Next), a.StateDim))
		}
		copy(a.nextMat.Row(g), tr.Next)
		for i, act := range tr.NextActions {
			if len(act) != a.ActionDim {
				panic(fmt.Sprintf("rl: transition %d next action %d dim %d, want %d", bi, i, len(act), a.ActionDim))
			}
			copy(a.actMat.Row(len(a.group)), act)
			a.group = append(a.group, g)
		}
		a.tgtRow[bi] = g
		g++
	}
	if groups == 0 {
		return
	}
	net := a.Main
	if a.cfg.VanillaDQN {
		net = a.Target
	}
	qs := net.ForwardBatchGrouped(a.nextMat, a.group, a.actMat).Data // one column
	if !a.cfg.VanillaDQN {
		a.tgtMat = vec.EnsureMat(a.tgtMat, groups, a.StateDim+a.ActionDim)
	}
	r := 0
	for bi, tr := range batch {
		g := a.tgtRow[bi]
		if g < 0 {
			continue
		}
		n := len(tr.NextActions)
		best := argmaxFirst(qs[r : r+n])
		if a.cfg.VanillaDQN {
			a.ys[bi] += a.cfg.Gamma * qs[r+best]
		} else {
			row := a.tgtMat.Row(g)
			copy(row, tr.Next)
			copy(row[a.StateDim:], tr.NextActions[best])
		}
		r += n
	}
	if a.cfg.VanillaDQN {
		return
	}
	out := a.Target.ForwardBatch(a.tgtMat)
	for bi := range batch {
		if g := a.tgtRow[bi]; g >= 0 {
			a.ys[bi] += a.cfg.Gamma * out.At(g, 0)
		}
	}
}

// TrainBatch performs one gradient step on the sampled batch, minimizing the
// DQN loss between Q(s,a) and r + γ·V(s′), and returns the mean loss. The
// target network is synced every cfg.SyncEvery calls.
func (a *Agent) TrainBatch(batch []Transition) float64 {
	if len(batch) == 0 {
		return 0
	}
	a.own()
	nn.ZeroGrads(a.params)
	a.computeTargets(batch)

	// One batched forward over every (s, a) row, then per-row loss and one
	// batched backward. Row order matches the old per-transition loop, so
	// gradients and loss are bit-identical to the serial path.
	inDim := a.StateDim + a.ActionDim
	a.xMat = vec.EnsureMat(a.xMat, len(batch), inDim)
	for bi, tr := range batch {
		if len(tr.State) != a.StateDim || len(tr.Action) != a.ActionDim {
			panic(fmt.Sprintf("rl: transition %d feature dims (%d,%d), want (%d,%d)",
				bi, len(tr.State), len(tr.Action), a.StateDim, a.ActionDim))
		}
		row := a.xMat.Row(bi)
		copy(row, tr.State)
		copy(row[a.StateDim:], tr.Action)
	}
	out := a.Main.ForwardBatch(a.xMat) // caches batch activations

	var total float64
	inv := 1 / float64(len(batch))
	delta := a.cfg.HuberDelta
	if delta <= 0 {
		delta = 1
	}
	a.gMat = vec.EnsureMat(a.gMat, len(batch), 1)
	for bi := range batch {
		q, y := out.At(bi, 0), a.ys[bi]
		d := q - y
		var loss, grad float64
		switch {
		case a.cfg.MSE:
			loss, grad = 0.5*d*d, d
		case math.Abs(d) <= delta:
			loss, grad = 0.5*d*d, d
		default:
			loss = delta * (math.Abs(d) - 0.5*delta)
			if d > 0 {
				grad = delta
			} else {
				grad = -delta
			}
		}
		// Scale so the batch gradient is the mean.
		a.gMat.Set(bi, 0, grad*inv)
		total += loss * inv
	}
	a.Main.BackwardBatch(a.gMat)
	nn.ClipGrads(a.params, a.cfg.GradClip)
	a.opt.Step(a.params)
	a.updates++
	a.lastLoss = total
	if a.updates == 1 {
		a.lossEMA = total
	} else {
		a.lossEMA = emaDecay*a.lossEMA + (1-emaDecay)*total
	}
	if a.updates%a.cfg.SyncEvery == 0 {
		a.Target.CopyWeightsFrom(a.Main)
		a.syncs++
	}
	return total
}

// Updates returns the number of gradient steps taken so far.
func (a *Agent) Updates() int { return a.updates }

// SyncTarget forces an immediate target-network synchronization.
func (a *Agent) SyncTarget() {
	a.own()
	a.Target.CopyWeightsFrom(a.Main)
	a.syncs++
}

// TrainStats is a point-in-time snapshot of DQN training progress — the
// telemetry surfaced at /metrics when an RL algorithm backs the server.
// Updates/TargetSyncs/loss fields come from the agent itself (Stats);
// Epsilon and the replay fields are filled in by the training loop, which
// owns the schedule and the buffer.
type TrainStats struct {
	Updates     int     `json:"updates"`      // gradient steps taken
	TargetSyncs int     `json:"target_syncs"` // target-network synchronizations
	LastLoss    float64 `json:"last_loss"`    // most recent batch loss
	LossEMA     float64 `json:"loss_ema"`     // smoothed batch loss (decay 0.995)
	Epsilon     float64 `json:"epsilon"`      // exploration rate at the last episode
	ReplaySize  int     `json:"replay_size"`  // transitions currently buffered
	ReplayCap   int     `json:"replay_cap"`   // replay buffer capacity
}

// Stats snapshots the agent-owned training telemetry.
func (a *Agent) Stats() TrainStats {
	return TrainStats{
		Updates:     a.updates,
		TargetSyncs: a.syncs,
		LastLoss:    a.lastLoss,
		LossEMA:     a.lossEMA,
		ReplayCap:   a.cfg.ReplayCap,
	}
}

// MarshalBinary serializes the main network together with the feature
// dimensions; Target is reconstructed on load.
func (a *Agent) MarshalBinary() ([]byte, error) {
	net, err := a.Main.MarshalBinary()
	if err != nil {
		return nil, err
	}
	hdr := fmt.Sprintf("dqn:%d:%d:", a.StateDim, a.ActionDim)
	return append([]byte(hdr), net...), nil
}

// decoded caches the most recently decoded agent blob with its network, so
// every session that loads the same model shares one copy of the weights.
// One entry suffices: a process serves one model at a time.
var decoded struct {
	sync.Mutex
	blob    []byte // private copy of the bytes, compared in full
	sd, ad  int
	net     *nn.Network // never run or written; scorers run Views of it
	scorers *sync.Pool  // see newScorerPool
}

// UnmarshalAgent restores an agent saved with MarshalBinary. cfg supplies
// the hyperparameters (they are not serialized). Main is a network decoded
// once per distinct blob and shared with every other agent loaded from the
// same bytes. The agent holds no scratch of its own: its scoring calls
// borrow scorers pooled with the decoded network, and its training state is
// built on first training use (see Agent). A blob that fails to decode or
// whose header disagrees with its network is rejected and never cached.
func UnmarshalAgent(data []byte, cfg Config) (*Agent, error) {
	decoded.Lock()
	defer decoded.Unlock()
	if decoded.net == nil || !bytes.Equal(decoded.blob, data) {
		sd, ad, net, err := decodeAgent(data)
		if err != nil {
			return nil, err
		}
		decoded.blob = bytes.Clone(data)
		decoded.sd, decoded.ad, decoded.net = sd, ad, net
		decoded.scorers = newScorerPool(sd, ad, net)
	}
	return &Agent{
		StateDim:  decoded.sd,
		ActionDim: decoded.ad,
		Main:      decoded.net,
		cfg:       cfg.Defaults(),
		scorers:   decoded.scorers,
	}, nil
}

// decodeAgent parses a MarshalBinary blob and checks that the network can
// score the header's (state, action) features: its first layer is Dense over
// StateDim+ActionDim inputs and its head is one wide.
func decodeAgent(data []byte) (sd, ad int, net *nn.Network, err error) {
	// Header is "dqn:<stateDim>:<actionDim>:" followed by the gob payload.
	colons := 0
	idx := -1
	for i, b := range data {
		if b == ':' {
			colons++
			if colons == 3 {
				idx = i + 1
				break
			}
		}
	}
	if idx < 0 {
		return 0, 0, nil, fmt.Errorf("rl: truncated agent blob")
	}
	if _, err := fmt.Sscanf(string(data[:idx]), "dqn:%d:%d:", &sd, &ad); err != nil {
		return 0, 0, nil, fmt.Errorf("rl: bad agent header: %w", err)
	}
	if sd <= 0 || ad <= 0 {
		return 0, 0, nil, fmt.Errorf("rl: agent dims (%d,%d) must be positive", sd, ad)
	}
	net = &nn.Network{}
	if err := net.UnmarshalBinary(data[idx:]); err != nil {
		return 0, 0, nil, err
	}
	if len(net.Layers) == 0 {
		return 0, 0, nil, fmt.Errorf("rl: agent network has no layers")
	}
	first, ok := net.Layers[0].(*nn.Dense)
	if !ok || first.In != sd+ad {
		return 0, 0, nil, fmt.Errorf("rl: agent network input does not match dims (%d,%d)", sd, ad)
	}
	head := 0 // UnmarshalBinary checked that dense layers chain
	for _, l := range net.Layers {
		if d, ok := l.(*nn.Dense); ok {
			head = d.Out
		}
	}
	if head != 1 {
		return 0, 0, nil, fmt.Errorf("rl: agent network head is %d wide, want 1", head)
	}
	return sd, ad, net, nil
}
