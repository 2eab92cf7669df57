package exp

import (
	"time"

	"isrl/internal/aa"
	"isrl/internal/core"
	"isrl/internal/ea"
)

// extNoise is the paper's future-work scenario (§VI) promoted to a full
// experiment: sweep the probability that the simulated user answers
// incorrectly and report how both RL algorithms degrade in rounds and
// achieved regret. Under noise the exactness certificates no longer bind,
// so the regret column is the interesting series.
func extNoise(c Config) (*Table, error) {
	ds := c.synthetic(c.N, 3)
	e, err := c.trainedEA(ds, c.Eps, ea.Config{}, c.TrainEpisodes)
	if err != nil {
		return nil, err
	}
	a, err := c.trainedAA(ds, c.Eps, aa.Config{}, c.TrainEpisodes)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "ext-noise", Title: "answer noise sweep (d=3, extension of §VI)",
		Columns: []string{"flip_prob", "algorithm", "user_questions", "time_s", "regret"}}
	users := c.testUsers(ds.Dim())
	type variant struct {
		label    string
		alg      core.Algorithm
		majority int // 0 = ask each question once; k = majority-of-k
	}
	er, err := c.trainedEA(ds, c.Eps, ea.Config{Resilient: true}, c.TrainEpisodes)
	if err != nil {
		return nil, err
	}
	variants := []variant{
		{"EA", e, 0},
		{"AA", a, 0},
		{"EA majority-of-3", e, 3},
		{"AA majority-of-3", a, 3},
		{"EA resilient", er, 0},
	}
	for fi, flip := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		for vi, v := range variants {
			// Each cell flips from its own stream, so a change to one
			// variant's questions moves no other row.
			noiseRng := c.rng(59<<16 | int64(fi*len(variants)+vi))
			var questions, secs, regret float64
			for _, u := range users {
				var user core.User = core.NoisyUser{Utility: u, FlipProb: flip, Rng: noiseRng}
				cost := 1.0
				if v.majority > 0 {
					user = core.MajorityUser{Inner: user, K: v.majority}
					cost = float64(v.majority)
				}
				start := time.Now()
				res, err := v.alg.Run(ds, user, c.Eps, nil)
				if err != nil {
					return nil, err
				}
				secs += time.Since(start).Seconds()
				questions += cost * float64(res.Rounds)
				regret += ds.RegretRatio(res.Point, u)
			}
			n := float64(len(users))
			c.logf("ext-noise flip=%.2f %s questions=%.1f regret=%.4f", flip, v.label, questions/n, regret/n)
			t.AddRow(flip, v.label, questions/n, secs/n, regret/n)
		}
	}
	return t, nil
}
