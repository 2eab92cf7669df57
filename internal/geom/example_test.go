package geom_test

import (
	"context"
	"fmt"

	"isrl/internal/geom"
)

// ExampleIncremental shows the utility range narrowing that drives the whole
// interactive regret query: a user preferring p1 to p2 halves the simplex.
func ExampleIncremental() {
	ctx := context.Background()
	r := geom.NewIncremental(2) // the whole utility space U
	p1 := []float64{0.9, 0.1}
	p2 := []float64{0.1, 0.9}
	r.AddCtx(ctx, geom.NewHalfspace(p1, p2)) // "I prefer p1" (Lemma 1)

	verts, err := r.VerticesCtx(ctx)
	if err != nil {
		panic(err)
	}
	for _, v := range verts {
		fmt.Printf("[%.1f %.1f]\n", v[0], v[1])
	}
	// Output:
	// [0.5 0.5]
	// [1.0 0.0]
}

// ExampleIncremental_InnerBallCtx computes the paper's §IV-C inner sphere.
func ExampleIncremental_InnerBallCtx() {
	r := geom.NewIncremental(2)
	b, err := r.InnerBallCtx(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("center=[%.1f %.1f] radius=%.1f\n", b.Center[0], b.Center[1], b.Radius)
	// Output: center=[0.5 0.5] radius=0.5
}
