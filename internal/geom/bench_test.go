package geom

import (
	"context"
	"math/rand"
	"testing"
)

func benchPolytope(d, cuts int, seed int64) *polytope {
	rng := rand.New(rand.NewSource(seed))
	p := newPolytope(d)
	u := SampleSimplex(rng, d) // keep a witness feasible
	for k := 0; k < cuts; k++ {
		w := make([]float64, d)
		var wu float64
		for i := range w {
			w[i] = rng.NormFloat64()
			wu += w[i] * u[i]
		}
		if wu < 0 {
			for i := range w {
				w[i] = -w[i]
			}
		}
		p.Add(Halfspace{Normal: w})
	}
	return p
}

func BenchmarkVertices4D(b *testing.B) {
	p := benchPolytope(4, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.VerticesCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInnerBall20D(b *testing.B) {
	p := benchPolytope(20, 15, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.InnerBallCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOuterRect20D(b *testing.B) {
	p := benchPolytope(20, 15, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.OuterRect(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHitAndRunSample(b *testing.B) {
	p := benchPolytope(4, 8, 4)
	rng := rand.New(rand.NewSource(5))
	ib, err := p.InnerBallCtx(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SampleCtx(context.Background(), rng, 64, ib); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnclosingBall(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = SampleSimplex(rng, 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EnclosingBall(pts, EnclosingBallOptions{})
	}
}

func BenchmarkGreedyCover(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, 60)
	for i := range pts {
		pts[i] = SampleSimplex(rng, 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyCover(pts, 5, 0.1)
	}
}

// BenchmarkIncrementalClip4D measures one steady-state round of the
// incremental engine — clip the new halfspace into the maintained vertex
// set, then read the vertices — against BenchmarkVertices4D's from-scratch
// re-enumeration of the same kind of polytope.
func BenchmarkIncrementalClip4D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := 4
	u := SampleSimplex(rng, d)
	cuts := make([]Halfspace, 11)
	for k := range cuts {
		w := make([]float64, d)
		var wu float64
		for i := range w {
			w[i] = rng.NormFloat64()
			wu += w[i] * u[i]
		}
		if wu < 0 {
			for i := range w {
				w[i] = -w[i]
			}
		}
		cuts[k] = Halfspace{Normal: w}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := NewIncremental(d)
		for _, h := range cuts[:10] {
			g.AddCtx(context.Background(), h)
		}
		if _, err := g.VerticesCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		g.AddCtx(context.Background(), cuts[10])
		if _, err := g.VerticesCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVertices5D runs the scratch enumeration on a larger pool: 14 cuts
// at d=5, the paper's practical ceiling for exact polyhedra.
func BenchmarkVertices5D(b *testing.B) {
	p := benchPolytope(5, 14, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.VerticesCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
