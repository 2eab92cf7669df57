package main

import (
	"bufio"
	"math"
	"math/rand"
	"strings"
	"testing"

	"isrl/internal/dataset"
)

func TestParseUtility(t *testing.T) {
	u, err := parseUtility("0.5, 0.3, 0.2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u[0]-0.5) > 1e-12 || math.Abs(u[2]-0.2) > 1e-12 {
		t.Errorf("u = %v", u)
	}
	// Normalization.
	u, err = parseUtility("2,1,1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u[0]-0.5) > 1e-12 {
		t.Errorf("unnormalized parse: %v", u)
	}
	for _, bad := range []string{"1,2", "a,b,c", "-1,1,1", "0,0,0", "NaN,0.2,0.3", "+Inf,0.2,0.3", "1e308,1e308,1"} {
		if _, err := parseUtility(bad, 3); err == nil {
			t.Errorf("parseUtility(%q) should fail", bad)
		}
	}
}

func TestLoadDataKinds(t *testing.T) {
	for _, kind := range []string{"anti", "indep", "corr"} {
		ds, err := dataset.Load("", kind, 200, 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ds.Len() == 0 || ds.Dim() != 3 {
			t.Errorf("%s: shape %dx%d", kind, ds.Len(), ds.Dim())
		}
	}
	if _, err := dataset.Load("", "nope", 10, 2, 1); err == nil {
		t.Error("unknown kind must fail")
	}
	if _, err := dataset.Load("/does/not/exist.csv", "", 0, 0, 1); err == nil {
		t.Error("missing csv must fail")
	}
}

func TestBuildAlgorithmNames(t *testing.T) {
	ds, err := dataset.Load("", "anti", 200, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"ea", "aa", "uh-random", "uh-simplex", "singlepass", "utilityapprox", "adaptive"} {
		alg, err := buildAlgorithm(name, ds, 0.1, 0, "", rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alg == nil {
			t.Fatalf("%s: nil algorithm", name)
		}
	}
	if _, err := buildAlgorithm("nope", ds, 0.1, 0, "", rng); err == nil {
		t.Error("unknown algorithm must fail")
	}
	if _, err := buildAlgorithm("ea", ds, 0.1, 0, "/missing.model", rng); err == nil {
		t.Error("missing model must fail")
	}
}

func TestConsoleUserAnswers(t *testing.T) {
	ds := &dataset.Dataset{Points: [][]float64{{0.2, 0.8}, {0.9, 0.1}}, Attrs: []string{"x", "y"}}
	cu := &consoleUser{ds: ds, in: bufio.NewReader(strings.NewReader("junk\n2\n1\n"))}
	if cu.Prefer(ds.Points[0], ds.Points[1]) {
		t.Error("answer 2 must map to preferring the second point")
	}
	if !cu.Prefer(ds.Points[0], ds.Points[1]) {
		t.Error("answer 1 must map to preferring the first point")
	}
	// EOF falls back to 1 so sessions terminate.
	if !cu.Prefer(ds.Points[0], ds.Points[1]) {
		t.Error("EOF must default to the first point")
	}
}

func TestFormatPoint(t *testing.T) {
	ds := &dataset.Dataset{Points: [][]float64{{0.25, 0.75}}, Attrs: []string{"price"}}
	got := formatPoint(ds, ds.Points[0])
	if !strings.Contains(got, "price=0.250") || !strings.Contains(got, "a2=0.750") {
		t.Errorf("formatPoint = %q", got)
	}
}
