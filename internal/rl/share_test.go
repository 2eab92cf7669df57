package rl

import (
	"math"
	"math/rand"
	"testing"

	"isrl/internal/nn"
)

// shareFixture returns a serialized agent plus a replay of non-terminal and
// terminal transitions over its feature dims, so training exercises both the
// main and the target network.
func shareFixture(t *testing.T) ([]byte, []Transition) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	src := NewAgent(4, 3, Config{Hidden: 8, SyncEvery: 2}, rng)
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	vecN := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	var trs []Transition
	for i := 0; i < 16; i++ {
		trs = append(trs, Transition{
			State: vecN(4), Action: vecN(3), Reward: float64(i % 2),
			Next: vecN(4), NextActions: [][]float64{vecN(3), vecN(3)},
			Terminal: i%3 == 0,
		})
	}
	return blob, trs
}

func scores(a *Agent, trs []Transition) []float64 {
	var out []float64
	for _, tr := range trs {
		out = append(out, a.QBatch(tr.State, append(tr.NextActions, tr.Action), nil)...)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Two agents loaded from one blob read the same weight storage and have no
// Target until they train. Training one gives it private weights: a sibling
// loaded from the same bytes keeps scoring bit-identically, and so does an
// agent loaded afterwards.
func TestLoadedAgentsShareUntilTrained(t *testing.T) {
	blob, trs := shareFixture(t)
	trainee, err := UnmarshalAgent(blob, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := UnmarshalAgent(blob, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range trainee.Main.Params() {
		if &p.W[0] != &sibling.Main.Params()[i].W[0] {
			t.Fatalf("param %d: loaded agents hold separate weight copies", i)
		}
	}
	if trainee.Target != nil || sibling.Target != nil {
		t.Fatal("Target built at load")
	}
	want := scores(sibling, trs)
	for i := 0; i < 5; i++ {
		trainee.TrainBatch(trs)
	}
	if trainee.Target == nil {
		t.Fatal("training did not build Target")
	}
	if sameBits(scores(trainee, trs), want) {
		t.Fatal("training did not change the trainee's scores")
	}
	if !sameBits(scores(sibling, trs), want) {
		t.Fatal("training one agent changed a sibling's scores")
	}
	late, _ := UnmarshalAgent(blob, Config{})
	if !sameBits(scores(late, trs), want) {
		t.Fatal("training one agent changed the shared model")
	}
}

// A loaded agent trains bit-identically to an agent that owns a privately
// decoded Main, a Target cloned from it and a fresh optimizer, which is what
// keeps checkpoint resume exact.
func TestLoadedAgentTrainsLikePrivateCopy(t *testing.T) {
	blob, trs := shareFixture(t)
	shared, _ := UnmarshalAgent(blob, Config{SyncEvery: 2})
	var net nn.Network
	if err := net.UnmarshalBinary(blob[len("dqn:4:3:"):]); err != nil {
		t.Fatal(err)
	}
	cfg := Config{SyncEvery: 2}.Defaults()
	private := &Agent{
		StateDim: 4, ActionDim: 3, Main: &net, Target: net.Clone(),
		cfg: cfg, opt: newOptimizer(cfg), in: make([]float64, 7),
	}
	for i := 0; i < 5; i++ {
		ls, lp := shared.TrainBatch(trs), private.TrainBatch(trs)
		if math.Float64bits(ls) != math.Float64bits(lp) {
			t.Fatalf("batch %d: loss %v vs %v", i, ls, lp)
		}
	}
	if !sameBits(scores(shared, trs), scores(private, trs)) {
		t.Fatal("shared-load training diverged from the private copy")
	}
	if shared.Stats() != private.Stats() {
		t.Fatalf("stats %+v vs %+v", shared.Stats(), private.Stats())
	}
}

// SyncTarget on a loaded agent also builds its training state first.
func TestSyncTargetOnLoadedAgent(t *testing.T) {
	blob, trs := shareFixture(t)
	a, _ := UnmarshalAgent(blob, Config{})
	want := scores(a, trs)
	a.SyncTarget()
	if a.Target == nil || a.Stats().TargetSyncs != 1 {
		t.Fatalf("SyncTarget: target %v, syncs %d", a.Target, a.Stats().TargetSyncs)
	}
	if !sameBits(scores(a, trs), want) {
		t.Fatal("SyncTarget changed the agent's scores")
	}
}

// A blob that fails to load does not displace the cached model.
func TestFailedLoadNotCached(t *testing.T) {
	blob, _ := shareFixture(t)
	a, _ := UnmarshalAgent(blob, Config{})
	if _, err := UnmarshalAgent([]byte("dqn:4:3:junk"), Config{}); err == nil {
		t.Fatal("junk accepted")
	}
	b, _ := UnmarshalAgent(blob, Config{})
	if &a.Main.Params()[0].W[0] != &b.Main.Params()[0].W[0] {
		t.Fatal("a failed load evicted the cached model")
	}
}

// Header dims that disagree with the network are rejected at load, not left
// to panic in the first round.
func TestUnmarshalAgentDimMismatch(t *testing.T) {
	blob, _ := shareFixture(t) // "dqn:4:3:" over a 7-input, 1-output net
	payload := blob[len("dqn:4:3:"):]
	for _, hdr := range []string{"dqn:4:4:", "dqn:3:3:", "dqn:-1:8:", "dqn:0:7:"} {
		if _, err := UnmarshalAgent(append([]byte(hdr), payload...), Config{}); err == nil {
			t.Errorf("header %q accepted over a 7-input network", hdr)
		}
	}
	wide, err := nn.NewMLP([]int{7, 4, 2}, nn.SELU, rand.New(rand.NewSource(1))).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalAgent(append([]byte("dqn:4:3:"), wide...), Config{}); err == nil {
		t.Error("2-wide head accepted")
	}
}
