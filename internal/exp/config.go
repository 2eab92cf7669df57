package exp

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"isrl/internal/aa"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/geom"
)

// Config scales every experiment. The paper's settings (§V) are n=100,000,
// d=4, ε=0.1, 10,000 training vectors, 10 trials; Full selects them, Quick
// and Tiny shrink the workload for laptop benches and unit tests. All
// randomness derives from Seed, so runs are reproducible.
type Config struct {
	N             int     // synthetic dataset size before skyline preprocessing
	Trials        int     // simulated users per measurement point
	TrainEpisodes int     // training utility vectors per agent
	Eps           float64 // default regret threshold
	Seed          int64
	Progress      io.Writer // optional progress log (nil = silent)
}

// Tiny is the unit-test scale: seconds per experiment.
func Tiny() Config {
	return Config{N: 600, Trials: 3, TrainEpisodes: 40, Eps: 0.1, Seed: 1}
}

// Quick is the default CLI/bench scale: minutes for the whole registry.
func Quick() Config {
	return Config{N: 10000, Trials: 5, TrainEpisodes: 400, Eps: 0.1, Seed: 1}
}

// Full is the paper scale. Expect hours on a laptop.
func Full() Config {
	return Config{N: 100000, Trials: 10, TrainEpisodes: 10000, Eps: 0.1, Seed: 1}
}

func (c Config) logf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// rng returns a reproducible generator for a named purpose.
func (c Config) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1_000_003 + purpose))
}

// testUsers draws the hidden utility vectors of the simulated test users.
func (c Config) testUsers(d int) [][]float64 {
	rng := c.rng(7)
	users := make([][]float64, c.Trials)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, d)
	}
	return users
}

// trainVectors draws the training set of utility vectors (§V samples them
// uniformly from the utility space).
func (c Config) trainVectors(d, episodes int) [][]float64 {
	rng := c.rng(11)
	out := make([][]float64, episodes)
	for i := range out {
		out[i] = geom.SampleSimplex(rng, d)
	}
	return out
}

// synthetic builds the skyline-preprocessed anti-correlated dataset used by
// the synthetic experiments.
func (c Config) synthetic(n, d int) *dataset.Dataset {
	return dataset.Anticorrelated(c.rng(13+int64(d)*31+int64(n)), n, d).Skyline()
}

// trainedEA builds and trains an EA agent.
func (c Config) trainedEA(ds *dataset.Dataset, eps float64, cfg ea.Config, episodes int) (*ea.EA, error) {
	e := ea.New(ds, eps, cfg, c.rng(17))
	return e, c.train(e, ds.Dim(), episodes)
}

// trainedAA builds and trains an AA agent.
func (c Config) trainedAA(ds *dataset.Dataset, eps float64, cfg aa.Config, episodes int) (*aa.AA, error) {
	a := aa.New(ds, eps, cfg, c.rng(19))
	return a, c.train(a, ds.Dim(), episodes)
}

// train runs alg's training on episodes vectors of dimension d and logs the
// outcome.
func (c Config) train(alg core.Trainable, d, episodes int) error {
	if episodes <= 0 {
		return nil
	}
	st, err := alg.Train(c.trainVectors(d, episodes))
	if err != nil {
		return err
	}
	c.logf("trained %s: %d episodes, avg %.1f rounds, loss ema %.5f, %d updates, %d syncs",
		alg.Name(), st.Episodes, st.AvgRounds, st.RL.LossEMA, st.RL.Updates, st.RL.TargetSyncs)
	return nil
}

// Stats aggregates one measurement point over the config's trials.
type Stats struct {
	Rounds  float64 // mean questions asked
	Seconds float64 // mean interaction wall time
	Regret  float64 // mean actual regret ratio of the returned point
}

// Measure runs alg once per test user and averages rounds, wall time and the
// actual regret ratio of the returned point — the paper's three metrics.
func Measure(alg core.Algorithm, ds *dataset.Dataset, eps float64, users [][]float64) (Stats, error) {
	var s Stats
	for _, u := range users {
		start := time.Now()
		res, err := alg.Run(ds, core.SimulatedUser{Utility: u}, eps, nil)
		if err != nil {
			return Stats{}, fmt.Errorf("exp: %s: %w", alg.Name(), err)
		}
		s.Seconds += time.Since(start).Seconds()
		s.Rounds += float64(res.Rounds)
		s.Regret += ds.RegretRatio(res.Point, u)
	}
	n := float64(len(users))
	if n > 0 {
		s.Rounds /= n
		s.Seconds /= n
		s.Regret /= n
	}
	return s, nil
}
