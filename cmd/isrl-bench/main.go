// Command isrl-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	isrl-bench -fig fig9                 # one figure, quick scale
//	isrl-bench -fig all -scale tiny      # whole registry, test scale
//	isrl-bench -fig fig16 -scale full    # paper-scale workload (hours)
//	isrl-bench -fig fig9 -csv out/       # also write CSV per figure
//	isrl-bench -hotpaths                 # benchmark hot paths -> BENCH_hotpaths.json
//	isrl-bench -hotpaths -quick          # smaller workloads (CI smoke)
//	isrl-bench -hotpaths -quick -out /tmp/b.json -compare BENCH_hotpaths.json
//	                                     # regression gate vs the committed report
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"isrl/internal/exp"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "experiment id (see -list) or 'all'")
		scale   = flag.String("scale", "quick", "workload scale: tiny, quick, or full")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files (optional)")
		seed    = flag.Int64("seed", 1, "random seed")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		quiet   = flag.Bool("q", false, "suppress progress logging")
		trials  = flag.Int("trials", 0, "override number of simulated users per point")
		train   = flag.Int("train", 0, "override training episodes per agent")
		numPts  = flag.Int("n", 0, "override synthetic dataset size")
		epsilon = flag.Float64("eps", 0, "override default regret threshold")

		hotpaths = flag.Bool("hotpaths", false, "measure the batched hot paths and write a JSON report")
		quick    = flag.Bool("quick", false, "with -hotpaths: smaller workloads for CI smoke runs")
		outPath  = flag.String("out", "BENCH_hotpaths.json", "with -hotpaths: report destination")
		compare  = flag.String("compare", "", "with -hotpaths: baseline report to gate against (fails on speedup sign flips and alloc growth; skipped on host mismatch)")
	)
	flag.Parse()

	if *hotpaths {
		if err := runHotpaths(*quick, *outPath, *compare); err != nil {
			fatalf("hotpaths: %v", err)
		}
		return
	}

	if *list {
		for _, e := range exp.Registry {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	var cfg exp.Config
	switch *scale {
	case "tiny":
		cfg = exp.Tiny()
	case "quick":
		cfg = exp.Quick()
	case "full":
		cfg = exp.Full()
	default:
		fatalf("unknown scale %q (tiny, quick, full)", *scale)
	}
	cfg.Seed = *seed
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *train > 0 {
		cfg.TrainEpisodes = *train
	}
	if *numPts > 0 {
		cfg.N = *numPts
	}
	if *epsilon > 0 {
		cfg.Eps = *epsilon
	}

	var todo []exp.Experiment
	if *fig == "all" {
		todo = exp.Registry
	} else {
		e, err := exp.ByID(*fig)
		if err != nil {
			fatalf("%v", err)
		}
		todo = []exp.Experiment{e}
	}

	for _, e := range todo {
		start := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			fatalf("%s: %v", e.ID, err)
		}
		if err := tab.Render(os.Stdout); err != nil {
			fatalf("render %s: %v", e.ID, err)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatalf("mkdir %s: %v", *csvDir, err)
			}
			path := filepath.Join(*csvDir, e.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fatalf("create %s: %v", path, err)
			}
			if err := tab.WriteCSV(f); err != nil {
				fatalf("write %s: %v", path, err)
			}
			if err := f.Close(); err != nil {
				fatalf("close %s: %v", path, err)
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "isrl-bench: "+format+"\n", args...)
	os.Exit(1)
}
