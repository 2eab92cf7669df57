package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runMany runs every workload n times, each run a fresh process with its
// own seed (seed, seed+1, ...), rotating the workload order from run to
// run so no workload always follows the same one. It prints each metric's
// median and quartiles with two spreads: the quartile distance and the
// full range, each as a share of the median. These are the spreads
// BENCHMARK.json's bounds are checked against.
func runMany(ctx context.Context, todo []workload, seed int64, seconds float64, traced, n int, stateDir, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		for j := range todo {
			w := todo[(i+j)%len(todo)]
			args := []string{
				"-workload", w.Name,
				"-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(traced),
				"-state-dir", stateDir,
			}
			line, printed, err := runChild(ctx, self, args)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i+1, err)
			}
			fmt.Fprintf(os.Stderr, "e2ebench: run %d/%d %s seed %d: correct=%v attempted=%d failed=%d\n",
				i+1, n, w.Name, seed+int64(i), line.Correct, line.Attempted, line.Failed)
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for _, m := range printed {
				values[w.Name][m.Name] = append(values[w.Name][m.Name], m.Value)
				units[m.Name] = m.Unit
			}
		}
	}
	fmt.Printf("%-12s %-30s %12s %12s %12s %8s %8s %s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "unit")
	for _, w := range todo {
		names := make([]string, 0, len(values[w.Name]))
		for name := range values[w.Name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			xs := values[w.Name][name]
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range xs {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			fmt.Printf("%-12s %-30s %12.5g %12.5g %12.5g %8.4f %8.4f %s\n",
				w.Name, name, q1, q2, q3, ratio(q3-q1, q2), ratio(hi-lo, q2), units[name])
		}
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(values, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// runChild runs one benchmark process and returns its result line and
// every "workload metric value unit" line it printed.
func runChild(ctx context.Context, self string, args []string) (resultLine, []metric, error) {
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return line, nil, runErr
		}
		return line, nil, fmt.Errorf("decode result line: %w", err)
	}
	if runErr != nil || !line.Correct {
		return line, nil, fmt.Errorf("run failed (correct=%v): %v", line.Correct, runErr)
	}
	var printed []metric
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 4 {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			printed = append(printed, metric{Name: f[1], Value: v, Unit: f[3]})
		}
	}
	return line, printed, nil
}
