// Command isrl-train trains an EA or AA agent for a dataset and saves the
// learned Q-network so interactive sessions start instantly.
//
// Usage:
//
//	isrl-train -algo ea -data anti -n 10000 -d 4 -eps 0.1 -episodes 1000 -out ea4d.model
//	isrl-train -algo aa -data player -eps 0.1 -episodes 2000 -out aa-player.model
//	isrl-train -algo aa -csv mydata.csv -out custom.model
//
// The dataset is regenerated from the same -seed at inference time
// (cmd/isrl does this), or supply -csv on both sides.
//
// Long runs can checkpoint: -checkpoint-every N atomically rewrites -out
// every N episodes (temp file + rename, so a crash never truncates a saved
// model), and -resume picks the weights back up from -out to continue
// training after an interruption.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"isrl/internal/aa"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/geom"
)

func main() {
	var (
		algo     = flag.String("algo", "ea", "ea or aa")
		data     = flag.String("data", "anti", "anti, indep, corr, car, player (ignored with -csv)")
		csvPath  = flag.String("csv", "", "train on a CSV dataset instead of a generated one")
		n        = flag.Int("n", 10000, "synthetic dataset size")
		d        = flag.Int("d", 4, "synthetic dimensionality")
		eps      = flag.Float64("eps", 0.1, "regret-ratio threshold the agent trains for")
		episodes = flag.Int("episodes", 1000, "training utility vectors (paper: 10000)")
		seed     = flag.Int64("seed", 1, "random seed (dataset + training)")
		out      = flag.String("out", "", "output model path (required)")
		resume   = flag.Bool("resume", false, "continue training from the model at -out when it exists")
		ckpEvery = flag.Int("checkpoint-every", 0, "atomically checkpoint -out every N episodes (0 = only at the end)")
	)
	flag.Parse()
	if *out == "" {
		fatalf("-out is required")
	}

	ds, err := dataset.Load(*csvPath, *data, *n, *d, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "dataset: %d skyline tuples, d=%d\n", ds.Len(), ds.Dim())

	var resumeBlob []byte
	if *resume {
		blob, err := os.ReadFile(*out)
		switch {
		case err == nil:
			resumeBlob = blob
			fmt.Fprintf(os.Stderr, "resuming from %s (%d bytes)\n", *out, len(blob))
		case errors.Is(err, os.ErrNotExist):
			// Crashed before the first checkpoint landed: start fresh.
			fmt.Fprintf(os.Stderr, "resume: no checkpoint at %s, starting fresh\n", *out)
		default:
			fatalf("resume: %v", err)
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	users := make([][]float64, *episodes)
	for i := range users {
		users[i] = geom.SampleSimplex(rng, ds.Dim())
	}

	start := time.Now()
	var alg core.Trainable
	switch *algo {
	case "ea":
		if resumeBlob != nil {
			alg, err = ea.Load(ds, *eps, ea.Config{}, resumeBlob, rng)
		} else {
			alg = ea.New(ds, *eps, ea.Config{}, rng)
		}
	case "aa":
		if resumeBlob != nil {
			alg, err = aa.Load(ds, *eps, aa.Config{}, resumeBlob, rng)
		} else {
			alg = aa.New(ds, *eps, aa.Config{}, rng)
		}
	default:
		fatalf("unknown -algo %q (ea or aa)", *algo)
	}
	if err != nil {
		fatalf("resume: %v", err)
	}

	// Each chunk ends with an atomic rewrite of -out, so an interrupted run
	// loses at most -checkpoint-every episodes. Note the DQN ε-greedy anneal
	// restarts per Train call, so chunked runs re-explore briefly after each
	// checkpoint — harmless for the small chunk counts this flag is for.
	var blob []byte
	trained := 0
	for _, chunk := range chunkUsers(users, *ckpEvery) {
		stats, err := alg.Train(chunk)
		if err != nil {
			fatalf("train: %v", err)
		}
		reportStats(alg.Name(), stats, start)
		trained += len(chunk)
		if blob, err = alg.Agent().MarshalBinary(); err != nil {
			fatalf("serialize: %v", err)
		}
		if err := writeAtomic(*out, blob); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		if trained < len(users) {
			fmt.Fprintf(os.Stderr, "checkpoint: %d/%d episodes -> %s\n", trained, len(users), *out)
		}
	}
	if blob == nil { // -episodes 0: still save the (possibly resumed) model
		if blob, err = alg.Agent().MarshalBinary(); err != nil {
			fatalf("serialize: %v", err)
		}
		if err := writeAtomic(*out, blob); err != nil {
			fatalf("write %s: %v", *out, err)
		}
	}
	fmt.Fprintf(os.Stderr, "model saved to %s (%d bytes)\n", *out, len(blob))
}

// reportStats prints one training summary block to stderr.
func reportStats(name string, st core.TrainStats, start time.Time) {
	fmt.Fprintf(os.Stderr, "%s trained: %d episodes, avg %.1f rounds, %v\n",
		name, st.Episodes, st.AvgRounds, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "  dqn: %d updates, %d target syncs, loss ema %.5f, replay %d/%d, final eps %.3f\n",
		st.RL.Updates, st.RL.TargetSyncs, st.RL.LossEMA, st.RL.ReplaySize, st.RL.ReplayCap, st.RL.Epsilon)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "isrl-train: "+format+"\n", args...)
	os.Exit(1)
}
