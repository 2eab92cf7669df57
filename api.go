package isrl

import (
	"context"
	"io"
	"math/rand"
	"net/http"

	"isrl/internal/aa"
	"isrl/internal/baselines"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/exp"
	"isrl/internal/geom"
	"isrl/internal/itree"
	"isrl/internal/server"
)

// Core problem types (see internal/core for full documentation).
type (
	// Dataset is a set of tuples in (0,1]^d, larger preferred.
	Dataset = dataset.Dataset
	// User answers pairwise comparison questions.
	User = core.User
	// SimulatedUser answers truthfully from a hidden utility vector.
	SimulatedUser = core.SimulatedUser
	// NoisyUser flips answers with a fixed probability.
	NoisyUser = core.NoisyUser
	// RecordingUser wraps a User and transcripts every comparison.
	RecordingUser = core.RecordingUser
	// MajorityUser asks K times and takes the majority (noise robustness).
	MajorityUser = core.MajorityUser
	// UserFunc adapts a comparison function to the User interface.
	UserFunc = core.UserFunc
	// Algorithm is any interactive regret-query algorithm.
	Algorithm = core.Algorithm
	// Result is an algorithm's outcome: returned tuple, rounds, transcript.
	Result = core.Result
	// QA is one question/answer record.
	QA = core.QA
	// Observer receives a per-round snapshot during interaction.
	Observer = core.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = core.ObserverFunc
	// Session drives an interactive search step by step (Next/Answer),
	// for applications that cannot block inside Run.
	Session = core.Session
)

// ErrSessionClosed is returned by Session.Result after Close.
var ErrSessionClosed = core.ErrSessionClosed

// NewSession starts alg on ds in a background goroutine and returns the
// pull-based handle: Next yields the question to show, Answer submits the
// choice, Result returns the outcome.
func NewSession(alg Algorithm, ds *Dataset, eps float64) *Session {
	return core.NewSession(context.Background(), alg, ds, eps, nil)
}

// The paper's algorithms.
type (
	// EA is the exact RL algorithm (§IV-B).
	EA = ea.EA
	// EAConfig tunes EA; the zero value selects the paper's settings.
	EAConfig = ea.Config
	// AA is the approximate, high-dimension-capable RL algorithm (§IV-C).
	AA = aa.AA
	// AAConfig tunes AA; the zero value selects the paper's settings.
	AAConfig = aa.Config
)

// Baselines from the literature.
type (
	// UHRandom is the SIGMOD'19 random-pair baseline.
	UHRandom = baselines.UHRandom
	// UHSimplex is the SIGMOD'19 greedy baseline.
	UHSimplex = baselines.UHSimplex
	// SinglePass is the KDD'23 streaming baseline.
	SinglePass = baselines.SinglePass
	// UtilityApprox is the SIGMOD'12 fake-tuple baseline.
	UtilityApprox = baselines.UtilityApprox
	// Adaptive is the VLDB'15 preference-learning baseline.
	Adaptive = baselines.Adaptive
	// UHConfig tunes the UH family.
	UHConfig = baselines.UHConfig
	// SinglePassConfig tunes SinglePass.
	SinglePassConfig = baselines.SinglePassConfig
	// UtilityApproxConfig tunes UtilityApprox.
	UtilityApproxConfig = baselines.UtilityApproxConfig
	// AdaptiveConfig tunes Adaptive.
	AdaptiveConfig = baselines.AdaptiveConfig
)

// Experiment harness (regenerates the paper's figures).
type (
	// ExpConfig scales an experiment run.
	ExpConfig = exp.Config
	// ExpTable is a rendered experiment result.
	ExpTable = exp.Table
	// Experiment is a registered reproduction of one paper figure.
	Experiment = exp.Experiment
)

// NewEA creates an untrained exact algorithm for ds and threshold eps.
// Train it with EA.Train before use (an untrained EA is still exact, just
// short-term-blind like the baselines).
func NewEA(ds *Dataset, eps float64, cfg EAConfig, rng *rand.Rand) *EA {
	return ea.New(ds, eps, cfg, rng)
}

// LoadEA restores a trained EA from a serialized agent blob.
func LoadEA(ds *Dataset, eps float64, cfg EAConfig, blob []byte, rng *rand.Rand) (*EA, error) {
	return ea.Load(ds, eps, cfg, blob, rng)
}

// NewAA creates an untrained approximate algorithm for ds and threshold eps.
func NewAA(ds *Dataset, eps float64, cfg AAConfig, rng *rand.Rand) *AA {
	return aa.New(ds, eps, cfg, rng)
}

// LoadAA restores a trained AA from a serialized agent blob.
func LoadAA(ds *Dataset, eps float64, cfg AAConfig, blob []byte, rng *rand.Rand) (*AA, error) {
	return aa.Load(ds, eps, cfg, blob, rng)
}

// NewUHRandom creates the UH-Random baseline.
func NewUHRandom(cfg UHConfig, rng *rand.Rand) *UHRandom { return baselines.NewUHRandom(cfg, rng) }

// NewUHSimplex creates the UH-Simplex baseline.
func NewUHSimplex(cfg UHConfig, rng *rand.Rand) *UHSimplex { return baselines.NewUHSimplex(cfg, rng) }

// NewSinglePass creates the SinglePass baseline.
func NewSinglePass(cfg SinglePassConfig, rng *rand.Rand) *SinglePass {
	return baselines.NewSinglePass(cfg, rng)
}

// NewUtilityApprox creates the UtilityApprox baseline.
func NewUtilityApprox(cfg UtilityApproxConfig) *UtilityApprox {
	return baselines.NewUtilityApprox(cfg)
}

// NewAdaptive creates the Adaptive preference-learning baseline.
func NewAdaptive(cfg AdaptiveConfig, rng *rand.Rand) *Adaptive {
	return baselines.NewAdaptive(cfg, rng)
}

// OptimalRounds computes the exact minimum worst-case number of questions
// for a 2-dimensional dataset at threshold eps, by solving the paper's
// interaction tree optimally (package itree). It errors for d ≠ 2.
func OptimalRounds(ds *Dataset, eps float64) (int, error) {
	tree, err := itree.New(ds, eps)
	if err != nil {
		return 0, err
	}
	return tree.OptimalRounds(), nil
}

// WriteOptimalTreeDOT renders the optimal interaction tree of a
// 2-dimensional dataset in Graphviz DOT format — the paper's Figure 1 for
// real data. maxDepth ≤ 0 renders the whole tree.
func WriteOptimalTreeDOT(ds *Dataset, eps float64, w io.Writer, maxDepth int) error {
	tree, err := itree.New(ds, eps)
	if err != nil {
		return err
	}
	return tree.WriteDOT(w, maxDepth)
}

// Dataset constructors.

// Anticorrelated generates the paper's synthetic benchmark distribution.
func Anticorrelated(rng *rand.Rand, n, d int) *Dataset { return dataset.Anticorrelated(rng, n, d) }

// Independent generates i.i.d. uniform tuples.
func Independent(rng *rand.Rand, n, d int) *Dataset { return dataset.Independent(rng, n, d) }

// Correlated generates tuples sharing a latent quality factor.
func Correlated(rng *rand.Rand, n, d int) *Dataset { return dataset.Correlated(rng, n, d) }

// SyntheticCar builds the stand-in for the paper's Car dataset
// (10,668 × 3; see DESIGN.md §3 for the substitution rationale).
func SyntheticCar(rng *rand.Rand) *Dataset { return dataset.SyntheticCar(rng) }

// SyntheticPlayer builds the stand-in for the paper's Player dataset
// (17,386 × 20; see DESIGN.md §3).
func SyntheticPlayer(rng *rand.Rand) *Dataset { return dataset.SyntheticPlayer(rng) }

// LoadDataset reads a CSV dataset (header row + numeric columns).
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadFile(path) }

// TrainVectors samples n utility vectors uniformly from the d-dimensional
// utility space — the training-set construction of §V.
func TrainVectors(rng *rand.Rand, d, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = geom.SampleSimplex(rng, d)
	}
	return out
}

// SampleUtility draws one utility vector uniformly from the utility space.
func SampleUtility(rng *rand.Rand, d int) []float64 { return geom.SampleSimplex(rng, d) }

// Experiment access.

// Experiments lists every registered reproduction (one per paper figure,
// plus ablations).
func Experiments() []Experiment { return exp.Registry }

// ExperimentByID finds a registered experiment, e.g. "fig9".
func ExperimentByID(id string) (Experiment, error) { return exp.ByID(id) }

// Experiment scale presets.
var (
	// TinyScale runs in seconds (unit-test sized).
	TinyScale = exp.Tiny
	// QuickScale runs in minutes (default CLI scale).
	QuickScale = exp.Quick
	// FullScale matches the paper's workload sizes.
	FullScale = exp.Full
)

// NewHTTPServer returns an http.Handler exposing interactive sessions over
// a small JSON API (POST /sessions, GET /sessions/{id},
// POST /sessions/{id}/answer, DELETE /sessions/{id}). factory builds a
// fresh algorithm per session; see cmd/isrl-serve for a complete server.
func NewHTTPServer(ds *Dataset, eps float64, factory func() Algorithm) http.Handler {
	return server.New(ds, eps, func(int64) Algorithm { return factory() })
}
