package geom

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"isrl/internal/fault"
	"isrl/internal/trace"
	"isrl/internal/vec"
)

// SampleSimplex draws one utility vector uniformly from the probability
// simplex using the standard exponential-spacings construction.
func SampleSimplex(rng *rand.Rand, d int) []float64 {
	u := make([]float64, d)
	var s float64
	for i := range u {
		u[i] = rng.ExpFloat64()
		s += u[i]
	}
	for i := range u {
		u[i] /= s
	}
	return u
}

// sampleChains is the number of independent hit-and-run chains SampleCtx
// decomposes a draw into (capped at the number of points drawn). Each chain
// discards 5·d burn-in steps and keeps every d-th step after that.
const sampleChains = 4

// chainRNGs recycles the per-chain generators: reseeding one in place yields
// exactly the stream rand.New(rand.NewSource(seed)) would, without
// allocating a fresh ~5 KB source on every draw.
var chainRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// SampleCtx draws n points approximately uniformly from R with hit-and-run,
// walking inside the affine subspace Σu = 1. The work is split across
// independent chains (sampleChains), run one after another, each
// starting at the inner ball center with its own RNG stream seeded in chain
// order from rng; chain c fills the next contiguous block of the output, so
// the output is a deterministic function of (rng state, n). It fails when R
// is empty or has no interior.
//
// Hit-and-run is the workhorse behind the paper's Lemma-5 sampling step: the
// number of sample vectors falling inside a terminal polyhedron tracks its
// volume fraction.
//
// The whole draw — inner-ball LP plus the chains — is timed into
// geom.sample_ms and, when ctx carries an active trace, as a "geom.sample"
// span annotated with the point and chain counts.
func (p *polytope) SampleCtx(ctx context.Context, rng *rand.Rand, n int) ([][]float64, error) {
	ctx, t := trace.StartTimer(ctx, "geom.sample", sampleMS)
	defer t.End()
	sampleCalls.Inc()
	samplePoints.Add(int64(n))
	if err := fault.Hit(fault.PointSample); err != nil {
		return nil, fmt.Errorf("geom: sample: %w", err)
	}
	d := p.Dim
	ib, err := p.InnerBallCtx(ctx)
	if err != nil {
		return nil, err
	}
	if ib.Radius <= 0 {
		return nil, fmt.Errorf("geom: sample: polytope has empty interior (radius %g)", ib.Radius)
	}
	from := ib.Center
	chains := sampleChains
	if chains > n {
		chains = n
	}
	if n == 0 {
		return nil, nil
	}
	// One flat backing array instead of n row allocations.
	out := make([][]float64, n)
	flat := make([]float64, n*d)
	for k := range out {
		out[k] = flat[k*d : (k+1)*d : (k+1)*d]
	}
	if sp := t.Span(); sp != nil {
		sp.SetInt("points", int64(n))
		sp.SetInt("chains", int64(chains))
	}
	stream := chainRNGs.Get().(*rand.Rand)
	defer chainRNGs.Put(stream)
	base, extra := n/chains, n%chains
	lo := 0
	for c := 0; c < chains; c++ {
		q := base
		if c < extra {
			q++
		}
		stream.Seed(rng.Int63())
		p.runChain(stream, from, out[lo:lo+q])
		lo += q
	}
	return out, nil
}

// runChain walks one hit-and-run chain from start, filling every
// pre-allocated slot of out with a retained sample: 5·d burn-in steps, then
// one sample every d steps.
func (p *polytope) runChain(rng *rand.Rand, start []float64, out [][]float64) {
	cur := vec.Clone(start)
	dir := make([]float64, len(start))
	burnIn, thin := 5*p.Dim, p.Dim
	steps := burnIn + len(out)*thin
	k := 0
	for s := 0; s < steps; s++ {
		p.randomZeroSumDir(rng, dir)
		lo, hi, ok := p.chord(cur, dir)
		if !ok {
			// Numerical corner: restart from the interior start point.
			copy(cur, start)
			continue
		}
		t := lo + rng.Float64()*(hi-lo)
		vec.AddScaled(cur, cur, t, dir)
		clampSimplex(cur)
		if s >= burnIn && (s-burnIn)%thin == thin-1 {
			copy(out[k], cur)
			k++
		}
	}
	// The restart branch skips retention slots; backfill any misses with
	// the last position so every slot is a valid interior point.
	for ; k < len(out); k++ {
		copy(out[k], cur)
	}
}

// randomZeroSumDir fills dir with a unit Gaussian direction projected onto
// the zero-sum hyperplane (tangent space of Σu = 1).
func (p *polytope) randomZeroSumDir(rng *rand.Rand, dir []float64) {
	d := len(dir)
	for {
		var mean float64
		for i := range dir {
			dir[i] = rng.NormFloat64()
			mean += dir[i]
		}
		mean /= float64(d)
		for i := range dir {
			dir[i] -= mean
		}
		if vec.Normalize(dir) > 1e-12 {
			return
		}
	}
}

// chord intersects the line cur + t·dir with R, returning the feasible
// t-interval. ok is false when the interval is empty or degenerate.
func (p *polytope) chord(cur, dir []float64) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	clip := func(num, den float64) bool {
		// Constraint: num + t·den ≥ 0.
		const tiny = 1e-14
		if den > tiny {
			if t := -num / den; t > lo {
				lo = t
			}
		} else if den < -tiny {
			if t := -num / den; t < hi {
				hi = t
			}
		} else if num < -1e-10 {
			return false
		}
		return true
	}
	for i := 0; i < p.Dim; i++ { // uᵢ ≥ 0
		if !clip(cur[i], dir[i]) {
			return 0, 0, false
		}
	}
	for _, h := range p.Halfspaces {
		if !clip(vec.Dot(h.Normal, cur), vec.Dot(h.Normal, dir)) {
			return 0, 0, false
		}
	}
	if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 0, false
	}
	return lo, hi, true
}

// clampSimplex repairs tiny numerical drift: negatives are zeroed and the
// vector is renormalized to sum 1.
func clampSimplex(u []float64) {
	var s float64
	for i := range u {
		if u[i] < 0 {
			u[i] = 0
		}
		s += u[i]
	}
	if s > 0 {
		for i := range u {
			u[i] /= s
		}
	}
}
