package obs

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMetricNameHygiene audits every metric registration in the repo's
// non-test sources: each name literal must match ^[a-z0-9_.]+$ (so promName's
// dot→underscore rewrite is the entire Prometheus sanitization) and no name
// may be registered under two different kinds (which panics at runtime, but
// only on the first request that reaches both call sites).
func TestMetricNameHygiene(t *testing.T) {
	root := repoRoot(t)
	nameRe := regexp.MustCompile(`^[a-z0-9_.]+$`)

	kinds := make(map[string]map[string]bool)  // name -> set of kinds
	origin := make(map[string]map[string]bool) // name -> call sites (for messages)
	srcs := goSources(t, root)
	files := len(srcs)
	for path, src := range srcs {
		for _, reg := range registrations(src) {
			kind, name := reg[0], reg[1]
			if !nameRe.MatchString(name) {
				t.Errorf("%s: metric name %q violates ^[a-z0-9_.]+$", path, name)
			}
			if kinds[name] == nil {
				kinds[name] = make(map[string]bool)
				origin[name] = make(map[string]bool)
			}
			kinds[name][kind] = true
			origin[name][fmt.Sprintf("%s (%s)", strings.TrimPrefix(path, root+"/"), kind)] = true
		}
	}
	if files < 10 || len(kinds) < 30 {
		t.Fatalf("audit scanned %d files and found %d metric names; the source scan looks broken", files, len(kinds))
	}
	// The resilience layers must stay instrumented: the client SDK, the
	// netfault proxy and the replication link each register at least one
	// metric the scan can see, the incremental geometry engine and warm
	// LP solver keep their fallback/hit-rate counters observable, and the
	// journal scrubber keeps its corruption/repair audit trail, and the
	// top-1 candidate index reports which scan every query took.
	for _, prefix := range []string{"client.", "netfault.", "geom.inc.", "lp.warm.", "repl.", "wal.scrub.", "dataset.top."} {
		found := false
		for name := range kinds {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q-prefixed metric registrations found; the resilience instrumentation went missing", prefix)
		}
	}
	for name, ks := range kinds {
		if len(ks) > 1 {
			sites := make([]string, 0, len(origin[name]))
			for s := range origin[name] {
				sites = append(sites, s)
			}
			sort.Strings(sites)
			t.Errorf("metric %q registered under multiple kinds: %s", name, strings.Join(sites, ", "))
		}
	}
}

// TestE2EBenchNamesRegistered guards against silently-zero metrics: the
// end-to-end benchmark (its own module under e2ebench/) reads a metric
// missing from /metrics as 0 with no error, and attributes only the spans
// it names in programSpans. So every metric literal it passes to
// d.count, d.histSum, d.histQuantile or d.sum must still be registered in
// the main module's non-test sources, and every programSpans key must
// still be a span name started there.
func TestE2EBenchNamesRegistered(t *testing.T) {
	// Read 0 by design since internal/par was deleted, until the next
	// benchmark change drops them (ROADMAP item 3).
	exempt := map[string]bool{"par.do_runs": true, "par.do_tasks": true, "par.inline_runs": true, "par.do": true}

	root := repoRoot(t)
	benchDir := filepath.Join(root, "e2ebench") + string(filepath.Separator)
	spanRe := regexp.MustCompile(`\b(?:Start|StartLeaf|StartTimer)\(\s*\w+\s*,\s*"([^"]+)"|\b(?:StartChild|StartTrace)\(\s*"([^"]+)"`)
	metrics, spans := map[string]bool{}, map[string]bool{}
	for path, src := range goSources(t, root) {
		if strings.HasPrefix(path, benchDir) {
			continue
		}
		for _, reg := range registrations(src) {
			metrics[reg[1]] = true
		}
		for _, m := range spanRe.FindAllStringSubmatch(src, -1) {
			spans[m[1]+m[2]] = true
		}
	}

	benchFiles, err := filepath.Glob(benchDir + "*.go")
	if err != nil {
		t.Fatal(err)
	}
	readRe := regexp.MustCompile(`\bd\.(?:count|histSum|histQuantile|sum)\(([^)]*)`)
	strRe := regexp.MustCompile(`"([^"]*)"`)
	programSpansRe := regexp.MustCompile(`(?s)var programSpans = map\[string\]bool\{(.*?)\n\}`)
	var reads, programSpans []string
	for _, path := range benchFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range readRe.FindAllStringSubmatch(string(src), -1) {
			for _, lit := range strRe.FindAllStringSubmatch(m[1], -1) {
				reads = append(reads, lit[1])
			}
		}
		if m := programSpansRe.FindStringSubmatch(string(src)); m != nil {
			for _, lit := range strRe.FindAllStringSubmatch(m[1], -1) {
				programSpans = append(programSpans, lit[1])
			}
		}
	}
	if len(reads) < 20 || len(programSpans) < 3 {
		t.Fatalf("found %d metric reads and %d programSpans keys in e2ebench; the source scan looks broken", len(reads), len(programSpans))
	}
	for _, name := range reads {
		if !metrics[name] && !exempt[name] {
			t.Errorf("e2ebench reads metric %q, which no main-module source registers: it would silently read 0", name)
		}
	}
	for _, name := range programSpans {
		if !spans[name] && !exempt[name] {
			t.Errorf("e2ebench attributes span %q, which no main-module source starts: its layer would silently read 0", name)
		}
	}
}

// repoRoot returns the main module's root directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// goSources reads every non-test .go file under root, keyed by path.
func goSources(t *testing.T, root string) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "vendor" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		srcs[path] = string(src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

var (
	registrationRe = regexp.MustCompile(`\.(Counter|Gauge|FloatGauge|Histogram)\(\s*([^)\n]*)`)
	litRe          = regexp.MustCompile(`^"([^"]*)"`)
	sprintfRe      = regexp.MustCompile(`^fmt\.Sprintf\(\s*"([^"]*)"`)
	verbRe         = regexp.MustCompile(`%[-+ #0]*[0-9.*]*[a-zA-Z]`)
)

// registrations returns the (kind, name) of every metric registration in
// src whose name is a literal. A "prefix." + route name gets a placeholder
// last segment, and every fmt.Sprintf verb becomes a literal "x".
func registrations(src string) [][2]string {
	var out [][2]string
	for _, m := range registrationRe.FindAllStringSubmatch(src, -1) {
		kind, arg := m[1], strings.TrimSpace(m[2])
		var name string
		switch {
		case litRe.MatchString(arg):
			lit := litRe.FindStringSubmatch(arg)[1]
			rest := strings.TrimSpace(arg[len(lit)+2:])
			name = lit
			if strings.HasPrefix(rest, "+") {
				// "prefix." + route: the dynamic part is a lowercase
				// route identifier; stand in a placeholder segment.
				name = lit + "x"
			}
		case sprintfRe.MatchString(arg):
			// fmt.Sprintf("http.responses.%s.%dxx", ...): normalize
			// every verb to a literal placeholder before validating.
			name = verbRe.ReplaceAllString(sprintfRe.FindStringSubmatch(arg)[1], "x")
		default:
			// Non-literal name (variable, field): nothing to audit
			// statically; the literal at its definition site is covered.
			continue
		}
		out = append(out, [2]string{kind, name})
	}
	return out
}
