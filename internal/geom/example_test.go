package geom_test

import (
	"context"
	"fmt"

	"isrl/internal/geom"
)

// ExamplePolytope shows the utility range narrowing that drives the whole
// interactive regret query: a user preferring p1 to p2 halves the simplex.
func ExamplePolytope() {
	r := geom.NewPolytope(2) // the whole utility space U
	p1 := []float64{0.9, 0.1}
	p2 := []float64{0.1, 0.9}
	r.Add(geom.NewHalfspace(p1, p2)) // "I prefer p1" (Lemma 1)

	verts, err := r.VerticesCtx(context.Background())
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

// ExamplePolytope_InnerBallCtx computes the paper's §IV-C inner sphere.
func ExamplePolytope_InnerBallCtx() {
	r := geom.NewPolytope(2)
	b, err := r.InnerBallCtx(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("center=[%.1f %.1f] radius=%.1f\n", b.Center[0], b.Center[1], b.Radius)
	// Output: center=[0.5 0.5] radius=0.5
}
