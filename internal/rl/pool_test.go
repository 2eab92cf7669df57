package rl

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// paperBlob serializes an agent of the paper's width (one hidden layer of
// 64) at EA's car shape, d = 3: state 5d+1 = 16, action 2d = 6.
func paperBlob(t *testing.T) []byte {
	t.Helper()
	blob, err := NewAgent(16, 6, Config{}, rand.New(rand.NewSource(31))).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// scoreCase is one state with its candidate actions and every score the
// three scoring entry points return for it.
type scoreCase struct {
	state   []float64
	actions [][]float64
	q       []float64 // Q(state, actions[i])
	batch   []float64 // QBatch(state, actions)
	best    int       // BestCtx(state, actions)
}

func (c *scoreCase) score(a *Agent) {
	c.q = make([]float64, len(c.actions))
	for i, act := range c.actions {
		c.q[i] = a.Q(c.state, act)
	}
	c.batch = a.QBatch(c.state, c.actions, nil)
	c.best = a.BestCtx(context.Background(), c.state, c.actions)
}

// Sibling agents loaded from one blob score concurrently through Q, QBatch
// and BestCtx, and every result equals the serial one bit for bit. Candidate
// sets of different sizes make scorers regrow their scratch between calls.
// Under -race this also proves no scoring path runs the shared network's own
// scratch.
func TestConcurrentLoadedScoringMatchesSerial(t *testing.T) {
	blob := paperBlob(t)
	rng := rand.New(rand.NewSource(32))
	cases := make([]scoreCase, 12)
	for i := range cases {
		cases[i].state = randVec(rng, 16)
		for k := 0; k < 1+i%7; k++ {
			cases[i].actions = append(cases[i].actions, randVec(rng, 6))
		}
	}
	ref, err := UnmarshalAgent(blob, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cases {
		cases[i].score(ref)
		for k, q := range cases[i].q {
			if math.Float64bits(q) != math.Float64bits(cases[i].batch[k]) {
				t.Fatalf("case %d: QBatch[%d] = %v, Q = %v", i, k, cases[i].batch[k], q)
			}
		}
	}

	const workers, passes = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, err := UnmarshalAgent(blob, Config{})
			if err != nil {
				t.Error(err)
				return
			}
			for p := 0; p < passes; p++ {
				for j := range cases {
					want := &cases[(j+w)%len(cases)]
					got := scoreCase{state: want.state, actions: want.actions}
					got.score(a)
					if !sameBits(got.q, want.q) || !sameBits(got.batch, want.batch) || got.best != want.best {
						t.Errorf("worker %d: concurrent scores %v/%v/%d, serial %v/%v/%d",
							w, got.q, got.batch, got.best, want.q, want.batch, want.best)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// idleAgentBytes bounds the live heap an agent loaded from a cached model
// keeps after scoring: the Agent struct, with no network view and no
// forward scratch (about 7 KiB per agent at this shape when each agent kept
// its own View).
const idleAgentBytes = 2 << 10

// Loaded agents that have scored and gone idle hold no forward scratch: the
// live heap grows by well under idleAgentBytes per agent, however many of
// them have scored.
func TestIdleLoadedAgentsHoldNoScratch(t *testing.T) {
	blob := paperBlob(t)
	rng := rand.New(rand.NewSource(33))
	state := randVec(rng, 16)
	actions := make([][]float64, 5)
	for i := range actions {
		actions[i] = randVec(rng, 6)
	}
	ctx := context.Background()
	// Drop the scorers earlier tests pooled (two collections empty a
	// sync.Pool), then decode the model and fill one scorer before measuring.
	runtime.GC()
	runtime.GC()
	warm, err := UnmarshalAgent(blob, Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm.BestCtx(ctx, state, actions)

	const n = 256
	agents := make([]*Agent, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range agents {
		if agents[i], err = UnmarshalAgent(blob, Config{}); err != nil {
			t.Fatal(err)
		}
		agents[i].BestCtx(ctx, state, actions)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(agents)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("live heap per idle loaded agent: %d B", per)
	if per > idleAgentBytes {
		t.Fatalf("each idle loaded agent holds %d B of live heap, bound %d", per, idleAgentBytes)
	}
}
