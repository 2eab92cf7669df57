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
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}

	callRe := regexp.MustCompile(`\.(Counter|Gauge|FloatGauge|Histogram)\(\s*([^)\n]*)`)
	litRe := regexp.MustCompile(`^"([^"]*)"`)
	sprintfRe := regexp.MustCompile(`^fmt\.Sprintf\(\s*"([^"]*)"`)
	verbRe := regexp.MustCompile(`%[-+ #0]*[0-9.*]*[a-zA-Z]`)
	nameRe := regexp.MustCompile(`^[a-z0-9_.]+$`)

	kinds := make(map[string]map[string]bool)  // name -> set of kinds
	origin := make(map[string]map[string]bool) // name -> call sites (for messages)
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		files++
		for _, m := range callRe.FindAllStringSubmatch(string(src), -1) {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
