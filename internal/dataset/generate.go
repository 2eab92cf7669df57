package dataset

import (
	"fmt"
	"math/rand"
)

// Load builds the skyline a command serves or trains on: the CSV dataset
// at csvPath when it is set, otherwise Generate's kind drawn from seed.
func Load(csvPath, kind string, n, d int, seed int64) (*Dataset, error) {
	var ds *Dataset
	var err error
	if csvPath != "" {
		ds, err = LoadFile(csvPath)
	} else {
		ds, err = Generate(kind, rand.New(rand.NewSource(seed)), n, d)
	}
	if err != nil {
		return nil, err
	}
	return ds.Skyline(), nil
}

// Generate builds a named dataset kind: "anti", "indep", "corr", "car", or
// "player". n and d apply only to the synthetic distributions; the car and
// player stand-ins have fixed shapes matching the paper's real datasets.
func Generate(kind string, rng *rand.Rand, n, d int) (*Dataset, error) {
	switch kind {
	case "anti":
		return Anticorrelated(rng, n, d), nil
	case "indep":
		return Independent(rng, n, d), nil
	case "corr":
		return Correlated(rng, n, d), nil
	case "car":
		return SyntheticCar(rng), nil
	case "player":
		return SyntheticPlayer(rng), nil
	}
	return nil, fmt.Errorf("dataset: unknown kind %q (anti, indep, corr, car, player)", kind)
}

// Anticorrelated generates n points in (0,1]^d with anti-correlated
// attributes, after the generator of Börzsönyi et al. used by the paper:
// each point sits near the hyperplane Σxᵢ = d/2, so a point good in one
// attribute tends to be poor in the others. Anti-correlated data maximizes
// skyline size, the stress case for interactive regret algorithms.
func Anticorrelated(rng *rand.Rand, n, d int) *Dataset {
	checkShape(n, d)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		// Sample a plane offset tightly concentrated around 0.5·d, then
		// spread the budget across attributes with pairwise compensation.
		// The tight concentration is what makes the benchmark hard: no
		// point is good in every attribute, so skylines are huge and no
		// tuple has small regret over the whole utility space.
		for {
			total := normClamp(rng, 0.5, 0.03) * float64(d)
			ok := spreadBudget(rng, p, total)
			if ok {
				break
			}
		}
		pts[i] = p
	}
	ds := &Dataset{Name: fmt.Sprintf("anti-%dd", d), Points: pts}
	return ds.Normalize()
}

// spreadBudget distributes total over p within (0,1); reports failure when
// the budget cannot fit.
func spreadBudget(rng *rand.Rand, p []float64, total float64) bool {
	d := len(p)
	if total <= 0 || total >= float64(d) {
		return false
	}
	rem := total
	for i := 0; i < d-1; i++ {
		left := float64(d - i - 1)
		lo := rem - left // remaining attrs can absorb at most `left`
		if lo < 0 {
			lo = 0
		}
		hi := rem
		if hi > 1 {
			hi = 1
		}
		if lo > hi {
			return false
		}
		// Bias toward an even split for the anti-correlated ridge.
		v := lo + (hi-lo)*rng.Float64()
		p[i] = v
		rem -= v
	}
	if rem < 0 || rem > 1 {
		return false
	}
	p[d-1] = rem
	// Shuffle so no attribute is systematically the residual.
	rng.Shuffle(d, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return true
}

// Independent generates n points with i.i.d. uniform attributes.
func Independent(rng *rand.Rand, n, d int) *Dataset {
	checkShape(n, d)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	ds := &Dataset{Name: fmt.Sprintf("indep-%dd", d), Points: pts}
	return ds.Normalize()
}

// Correlated generates n points whose attributes share a latent quality
// factor, yielding small skylines (the easy case).
func Correlated(rng *rand.Rand, n, d int) *Dataset {
	checkShape(n, d)
	pts := make([][]float64, n)
	for i := range pts {
		q := rng.Float64()
		p := make([]float64, d)
		for j := range p {
			p[j] = clamp01(q + rng.NormFloat64()*0.1)
		}
		pts[i] = p
	}
	ds := &Dataset{Name: fmt.Sprintf("corr-%dd", d), Points: pts}
	return ds.Normalize()
}

// SyntheticCar builds the stand-in for the paper's Kaggle used-car dataset:
// 10,668 cars × 3 benefit attributes — affordability (inverse price),
// condition (inverse mileage) and fuel economy (mpg). Affordability and
// condition are anti-correlated through a latent quality factor (newer,
// lower-mileage cars cost more), and fuel economy correlates mildly with
// affordability (cheaper cars are smaller). See DESIGN.md §3.
func SyntheticCar(rng *rand.Rand) *Dataset {
	const (
		n = 10668
		d = 3
	)
	pts := make([][]float64, n)
	for i := range pts {
		// Cars live near a budget surface: for a fixed amount of money you
		// trade affordability, condition (newness/low mileage) and fuel
		// economy against each other. The surface spread keeps the skyline
		// large, matching the preprocessing regime of the paper's
		// experiments. A vehicle-class factor (compact/sedan/truck) scales
		// fuel economy independently of the budget split.
		p := make([]float64, d)
		for {
			total := normClamp(rng, 0.5, 0.05) * float64(d)
			if spreadBudget(rng, p, total) {
				break
			}
		}
		classEconomy := [3]float64{1.0, 0.85, 0.7}[rng.Intn(3)]
		p[2] = clamp01(p[2] * classEconomy)
		pts[i] = p
	}
	ds := &Dataset{
		Name:   "car",
		Points: pts,
		Attrs:  []string{"affordability", "condition", "economy"},
	}
	return ds.Normalize()
}

// SyntheticPlayer builds the stand-in for the paper's Kaggle NBA players
// dataset: 17,386 players × 20 attributes (points, rebounds, assists, ...).
// A latent overall-skill factor drives every stat, with role factors that
// trade scoring off against defense/playmaking so the skyline stays large in
// 20 dimensions, matching the regime in which the paper compares AA with
// SinglePass. See DESIGN.md §3.
func SyntheticPlayer(rng *rand.Rand) *Dataset {
	const (
		n = 17386
		d = 20
	)
	attrs := []string{
		"games", "minutes", "points", "fgm", "fga", "fg3m", "fg3a", "ftm",
		"fta", "oreb", "dreb", "reb", "ast", "stl", "blk", "tov_inv",
		"pf_inv", "plus_minus", "eff", "ws",
	}
	// Loadings: skill plus one of three roles (scorer, big, playmaker).
	roleLoad := [3][20]float64{}
	for j := 0; j < d; j++ {
		roleLoad[0][j] = 0.1
		roleLoad[1][j] = 0.1
		roleLoad[2][j] = 0.1
	}
	for _, j := range []int{2, 3, 4, 5, 6, 7, 8} { // scoring block
		roleLoad[0][j] = 0.8
	}
	for _, j := range []int{9, 10, 11, 14, 16} { // big-man block
		roleLoad[1][j] = 0.8
	}
	for _, j := range []int{12, 13, 15, 17} { // playmaker block
		roleLoad[2][j] = 0.8
	}
	pts := make([][]float64, n)
	for i := range pts {
		skill := rng.Float64()
		role := rng.Intn(3)
		p := make([]float64, d)
		for j := 0; j < d; j++ {
			base := 0.35*skill + 0.45*roleLoad[role][j]*skill
			p[j] = clamp01(base + 0.25*rng.Float64())
		}
		pts[i] = p
	}
	ds := &Dataset{Name: "player", Points: pts, Attrs: attrs}
	return ds.Normalize()
}

func checkShape(n, d int) {
	if n <= 0 || d < 2 {
		panic(fmt.Sprintf("dataset: invalid shape n=%d d=%d", n, d))
	}
}

func clamp01(v float64) float64 {
	if v < 1e-6 {
		return 1e-6
	}
	if v > 1 {
		return 1
	}
	return v
}

func normClamp(rng *rand.Rand, mean, std float64) float64 {
	v := mean + rng.NormFloat64()*std
	if v < 0.05 {
		v = 0.05
	}
	if v > 0.95 {
		v = 0.95
	}
	return v
}
