// Command isrl runs an interactive regret-query session: it asks you (or a
// simulated user) to choose between pairs of tuples until a tuple close to
// your favorite can be returned.
//
// Usage:
//
//	isrl -data car -algo ea -eps 0.1             # interactive, console answers
//	isrl -data anti -n 5000 -d 4 -algo aa        # synthetic data
//	isrl -data car -simulate "0.5,0.3,0.2"       # scripted user for demos
//	isrl -data car -algo ea -model ea.model      # use a pre-trained agent
//
// Without -model, the RL algorithms train in-process before the session
// starts (a few seconds at the default -episodes).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"isrl/client"
	"isrl/internal/aa"
	"isrl/internal/baselines"
	"isrl/internal/core"
	"isrl/internal/dataset"
	"isrl/internal/ea"
	"isrl/internal/geom"
)

func main() {
	var (
		data     = flag.String("data", "car", "anti, indep, corr, car, player (ignored with -csv)")
		csvPath  = flag.String("csv", "", "interact over a CSV dataset")
		n        = flag.Int("n", 10000, "synthetic dataset size")
		d        = flag.Int("d", 4, "synthetic dimensionality")
		algo     = flag.String("algo", "ea", "ea, aa, uh-random, uh-simplex, singlepass, utilityapprox, adaptive")
		eps      = flag.Float64("eps", 0.1, "regret-ratio threshold")
		episodes = flag.Int("episodes", 300, "in-process training episodes for ea/aa (0 = untrained)")
		model    = flag.String("model", "", "pre-trained model file from isrl-train")
		seed     = flag.Int64("seed", 1, "random seed")
		simulate = flag.String("simulate", "", "comma-separated utility vector for a simulated user")
		remote   = flag.String("server", "", "drive a session on a running isrl-serve instead of in-process (e.g. http://localhost:8080)")
	)
	flag.Parse()

	if *remote != "" {
		runRemote(*remote, *simulate)
		return
	}

	ds, err := dataset.Load(*csvPath, *data, *n, *d, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("Dataset: %s — %d candidate tuples (skyline), %d attributes.\n", ds.Name, ds.Len(), ds.Dim())

	rng := rand.New(rand.NewSource(*seed))
	alg, err := buildAlgorithm(*algo, ds, *eps, *episodes, *model, rng)
	if err != nil {
		fatalf("%v", err)
	}

	var user core.User
	var hidden []float64
	if *simulate != "" {
		hidden, err = parseUtility(*simulate, ds.Dim())
		if err != nil {
			fatalf("%v", err)
		}
		user = core.SimulatedUser{Utility: hidden}
		fmt.Printf("Simulated user with utility vector %v.\n", hidden)
	} else {
		user = &consoleUser{ds: ds, in: bufio.NewReader(os.Stdin)}
		fmt.Println("Answer each question with 1 or 2 (your preferred option).")
	}

	res, err := alg.Run(ds, user, *eps, nil)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\nDone after %d questions. Recommended tuple:\n", res.Rounds)
	printTuple(ds, res.PointIndex)
	if hidden != nil {
		fmt.Printf("Actual regret ratio: %.4f (threshold %.2f)\n", ds.RegretRatio(res.Point, hidden), *eps)
	}
}

// runRemote drives a session on a running isrl-serve through the resilient
// client SDK: the dataset, algorithm and training flags are the server's
// business; this side only answers questions. Retries, backoff and the
// exactly-once round protocol all live inside the client package.
func runRemote(base, simulate string) {
	c := client.New(base)
	in := bufio.NewReader(os.Stdin)
	var hidden []float64
	round := 0
	if simulate == "" {
		fmt.Println("Answer each question with 1 or 2 (your preferred option).")
	}
	res, err := c.Run(context.Background(), func(q client.Question) bool {
		if simulate != "" {
			if hidden == nil {
				var perr error
				hidden, perr = parseUtility(simulate, len(q.First))
				if perr != nil {
					fatalf("%v", perr)
				}
				fmt.Printf("Simulated user with utility vector %v.\n", hidden)
			}
			return core.SimulatedUser{Utility: hidden}.Prefer(q.First, q.Second)
		}
		round++
		fmt.Printf("\nQuestion %d — which do you prefer?\n", round)
		fmt.Printf("  [1] %s\n", formatRemote(q.Attrs, q.First))
		fmt.Printf("  [2] %s\n", formatRemote(q.Attrs, q.Second))
		for {
			fmt.Print("> ")
			line, err := in.ReadString('\n')
			if err != nil {
				fmt.Println("(input closed; choosing 1)")
				return true
			}
			switch strings.TrimSpace(line) {
			case "1":
				return true
			case "2":
				return false
			}
			fmt.Println("Please answer 1 or 2.")
		}
	})
	if err != nil {
		fatalf("remote session: %v", err)
	}
	fmt.Printf("\nDone after %d questions. Recommended tuple:\n", res.Rounds)
	fmt.Printf("  #%d: %s\n", res.PointIndex, formatRemote(nil, res.Point))
	if res.Degraded {
		fmt.Printf("(degraded result: %s)\n", res.DegradedReason)
	}
}

// formatRemote renders one tuple with the attribute names the server sent.
func formatRemote(attrs []string, p []float64) string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteString("  ")
		}
		name := fmt.Sprintf("a%d", i+1)
		if i < len(attrs) {
			name = attrs[i]
		}
		fmt.Fprintf(&b, "%s=%.3f", name, v)
	}
	return b.String()
}

func buildAlgorithm(name string, ds *dataset.Dataset, eps float64, episodes int, modelPath string, rng *rand.Rand) (core.Algorithm, error) {
	trainUsers := func() [][]float64 {
		users := make([][]float64, episodes)
		for i := range users {
			users[i] = geom.SampleSimplex(rng, ds.Dim())
		}
		return users
	}
	switch name {
	case "ea":
		if modelPath != "" {
			blob, err := os.ReadFile(modelPath)
			if err != nil {
				return nil, err
			}
			return ea.Load(ds, eps, ea.Config{}, blob, rng)
		}
		return trained(ea.New(ds, eps, ea.Config{}, rng), trainUsers, episodes)
	case "aa":
		if modelPath != "" {
			blob, err := os.ReadFile(modelPath)
			if err != nil {
				return nil, err
			}
			return aa.Load(ds, eps, aa.Config{}, blob, rng)
		}
		return trained(aa.New(ds, eps, aa.Config{}, rng), trainUsers, episodes)
	case "uh-random":
		return baselines.NewUHRandom(baselines.UHConfig{}, rng), nil
	case "uh-simplex":
		return baselines.NewUHSimplex(baselines.UHConfig{}, rng), nil
	case "singlepass":
		return baselines.NewSinglePass(baselines.SinglePassConfig{}, rng), nil
	case "utilityapprox":
		return baselines.NewUtilityApprox(baselines.UtilityApproxConfig{}), nil
	case "adaptive":
		return baselines.NewAdaptive(baselines.AdaptiveConfig{}, rng), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// trained trains alg on episodes simulated users, announcing it on stdout.
func trained(alg core.Trainable, users func() [][]float64, episodes int) (core.Algorithm, error) {
	if episodes > 0 {
		fmt.Printf("Training %s on %d simulated users...\n", alg.Name(), episodes)
		if _, err := alg.Train(users()); err != nil {
			return nil, err
		}
	}
	return alg, nil
}

func parseUtility(s string, d int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("utility vector needs %d components, got %d", d, len(parts))
	}
	u := make([]float64, d)
	var sum float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", i+1, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("component %d is not finite", i+1)
		}
		if v < 0 {
			return nil, fmt.Errorf("component %d is negative", i+1)
		}
		u[i] = v
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("utility vector sums to zero")
	}
	if math.IsInf(sum, 0) {
		return nil, fmt.Errorf("utility vector sum overflows")
	}
	for i := range u {
		u[i] /= sum
	}
	return u, nil
}

// consoleUser asks the human at the terminal.
type consoleUser struct {
	ds    *dataset.Dataset
	in    *bufio.Reader
	round int
}

// Prefer implements core.User.
func (c *consoleUser) Prefer(pi, pj []float64) bool {
	c.round++
	fmt.Printf("\nQuestion %d — which do you prefer?\n", c.round)
	fmt.Printf("  [1] %s\n", formatPoint(c.ds, pi))
	fmt.Printf("  [2] %s\n", formatPoint(c.ds, pj))
	for {
		fmt.Print("> ")
		line, err := c.in.ReadString('\n')
		if err != nil {
			// EOF or closed stdin: fall back to option 1 so the session
			// terminates instead of spinning.
			fmt.Println("(input closed; choosing 1)")
			return true
		}
		switch strings.TrimSpace(line) {
		case "1":
			return true
		case "2":
			return false
		}
		fmt.Println("Please answer 1 or 2.")
	}
}

func formatPoint(ds *dataset.Dataset, p []float64) string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteString("  ")
		}
		name := fmt.Sprintf("a%d", i+1)
		if i < len(ds.Attrs) {
			name = ds.Attrs[i]
		}
		fmt.Fprintf(&b, "%s=%.3f", name, v)
	}
	return b.String()
}

func printTuple(ds *dataset.Dataset, idx int) {
	fmt.Printf("  #%d: %s\n", idx, formatPoint(ds, ds.Points[idx]))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "isrl: "+format+"\n", args...)
	os.Exit(1)
}
