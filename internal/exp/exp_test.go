package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{ID: "t1", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", 0.1234567)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== t1: demo ==") || !strings.Contains(out, "0.1235") {
		t.Errorf("render output:\n%s", out)
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,bb" {
		t.Errorf("csv output:\n%s", buf.String())
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		2.5:    "2.5",
		1:      "1",
		0.1001: "0.1001",
		-0.5:   "-0.5",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q want %q", in, got, want)
		}
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if _, err := ByID("fig9"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id must error")
	}
	if len(IDs()) != len(Registry) {
		t.Error("IDs length mismatch")
	}
}

func TestConfigPresetsOrdered(t *testing.T) {
	tiny, quick, full := Tiny(), Quick(), Full()
	if !(tiny.N < quick.N && quick.N < full.N) {
		t.Error("preset N not increasing")
	}
	if !(tiny.TrainEpisodes < quick.TrainEpisodes && quick.TrainEpisodes < full.TrainEpisodes) {
		t.Error("preset TrainEpisodes not increasing")
	}
	if full.TrainEpisodes != 10000 || full.N != 100000 {
		t.Error("Full must match the paper's settings")
	}
}

func tinyCfg() Config {
	c := Tiny()
	c.N = 300
	c.Trials = 2
	c.TrainEpisodes = 20
	return c
}

// Smoke-run the central ε sweep at tiny scale and check the headline shape:
// EA and AA never need more rounds than the worst baseline, and everyone's
// measured regret respects its guarantee regime.
func TestFig9TinyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiment still takes a few seconds")
	}
	tab, err := fig9(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(epsGrid)*5 {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(epsGrid)*5)
	}
	// Collect rounds by algorithm at eps=0.1.
	rounds := map[string]float64{}
	for _, row := range tab.Rows {
		if row[0] == "0.1" {
			v, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatalf("bad rounds cell %q", row[2])
			}
			rounds[row[1]] = v
		}
	}
	if len(rounds) != 5 {
		t.Fatalf("algorithms at eps=0.1: %v", rounds)
	}
	worstBaseline := rounds["UH-Random"]
	if rounds["UH-Simplex"] > worstBaseline {
		worstBaseline = rounds["UH-Simplex"]
	}
	if rounds["SinglePass"] > worstBaseline {
		worstBaseline = rounds["SinglePass"]
	}
	if rounds["EA"] > worstBaseline || rounds["AA"] > worstBaseline {
		t.Errorf("RL algorithms worse than the worst baseline: %v", rounds)
	}
}

func TestFig6aTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiment still takes a few seconds")
	}
	tab, err := fig6a(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // 4 training sizes × 2 algorithms
		t.Errorf("rows = %d want 8", len(tab.Rows))
	}
}

func TestAblRLTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiment still takes a few seconds")
	}
	tab, err := ablRL(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("rows = %d want 4", len(tab.Rows))
	}
}

func TestProgressTraceTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiment still takes a few seconds")
	}
	c := tinyCfg()
	ds := c.synthetic(c.N, 3)
	algos, err := c.lowDimAlgos(ds, c.Eps)
	if err != nil {
		t.Fatal(err)
	}
	rounds, times, regrets, err := c.progressTrace(algos[0], ds, c.Eps, c.testUsers(3)[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 || len(rounds) != len(times) || len(rounds) != len(regrets) {
		t.Fatalf("trace lengths %d/%d/%d", len(rounds), len(times), len(regrets))
	}
	// Cumulative time is non-decreasing.
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Error("cumulative time decreased")
			break
		}
	}
	// The estimate measures the paper's protocol point (top tuple at the
	// inner-sphere center), which need not be EA's certified point, so it
	// can exceed ε slightly — but it must have improved substantially over
	// the no-information estimate and stay in the same ballpark as ε.
	final := regrets[len(regrets)-1]
	if final > 5*c.Eps {
		t.Errorf("final max-regret estimate %v far above eps %v", final, c.Eps)
	}
}

func TestMeasureEmptyUsers(t *testing.T) {
	c := tinyCfg()
	ds := c.synthetic(300, 3)
	algos, err := c.lowDimAlgos(ds, c.Eps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Measure(algos[2], ds, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds != 0 || s.Seconds != 0 || s.Regret != 0 {
		t.Errorf("empty users stats = %+v", s)
	}
}

func TestSubsample(t *testing.T) {
	c := tinyCfg()
	c.N = 50
	ds := c.carData()
	if ds.Len() == 0 || ds.Len() > 50 {
		t.Errorf("subsampled car len = %d", ds.Len())
	}
	c.N = 0
	if got := c.playerData(); got.Dim() != 20 {
		t.Errorf("player dim = %d", got.Dim())
	}
}

// Reproducibility: identical config and seed produce identical tables, in
// every column but the wall-clock ones. ext-adaptive covers the Adaptive
// baseline beside the trained EA and AA.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four tiny trainings")
	}
	c := tinyCfg()
	for _, run := range []func(Config) (*Table, error){fig6b, extAdaptive} {
		a, err := run(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: row counts differ: %d vs %d", a.ID, len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			for j, col := range a.Columns {
				if col != "time_s" && a.Rows[i][j] != b.Rows[i][j] {
					t.Fatalf("%s: row %d col %s differs: %q vs %q", a.ID, i, col, a.Rows[i][j], b.Rows[i][j])
				}
			}
		}
	}
}
